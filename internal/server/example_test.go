package server_test

import (
	"context"
	"fmt"
	"net"

	"msqueue/internal/client"
	"msqueue/internal/ring"
	"msqueue/internal/server"
)

// ExampleServer serves a two-slot ring over loopback TCP: the third
// enqueue is refused with RETRY(full) instead of growing server memory,
// and Drain returns once every acknowledged value has been delivered.
func ExampleServer() {
	srv := server.New(server.Config{Queue: ring.New[int](2)})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(l)

	c, err := client.Dial(l.Addr().String())
	if err != nil {
		panic(err)
	}
	defer c.Close()
	for v := 1; v <= 3; v++ {
		ok, err := c.TryEnqueue(v)
		if err != nil {
			panic(err)
		}
		fmt.Println("enqueue", v, ok)
	}
	for i := 0; i < 2; i++ {
		v, ok, err := c.Dequeue()
		if err != nil || !ok {
			panic(fmt.Sprint("dequeue: ", ok, err))
		}
		fmt.Println("dequeue", v)
	}

	if err := srv.Drain(context.Background()); err != nil {
		panic(err)
	}
	fmt.Println("backlog", srv.Backlog())
	// Output:
	// enqueue 1 true
	// enqueue 2 true
	// enqueue 3 false
	// dequeue 1
	// dequeue 2
	// backlog 0
}
