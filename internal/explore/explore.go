package explore

import (
	"fmt"
	"sort"
	"strings"

	"msqueue/internal/linearizability"
)

// Mode selects whether the exploration records histories. Both modes run
// the same memoised depth-first search over every interleaving; they differ
// in what the memo key remembers of the path that reached a state.
type Mode int

const (
	// ModePaths records the history and checks every complete one with the
	// exact linearizability decision procedure. A state is revisited only
	// with a history whose endpoints lie in a different order (histKey), so
	// every distinct complete history is reached and checked.
	ModePaths Mode = iota
	// ModeGraph records no history: the key is the state alone, so the
	// search visits each reachable state once, checking the structural
	// invariants and detecting blocked states. State counts stay small
	// where history orders multiply, so this mode scales to more processes
	// and longer scripts. Histories (a path property) are not checked.
	ModeGraph
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePaths:
		return "paths"
	case ModeGraph:
		return "graph"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes one exhaustive exploration.
type Config struct {
	// Algo selects the algorithm all processes run.
	Algo Algo
	// Mode selects whether histories are recorded and checked for
	// linearizability (ModePaths, the zero value) or only states
	// (ModeGraph).
	Mode Mode
	// Scripts gives each process its operation sequence. Enqueued values
	// must be unique across all scripts (the checkers require it).
	Scripts [][]OpSpec
	// ArenaSize is the number of model nodes (including the dummy). For
	// AlgoMC size it to hold every enqueue plus the dummy: the model, like
	// the GC implementation, never recycles nodes. AlgoRing does not use the
	// node arena; pass 1.
	ArenaSize int
	// RingOrder is log2 of the AlgoRing slot count (capacity is half the
	// slots, as in internal/ring). Zero selects DefaultRingOrder. Scripts
	// must keep the live population within the capacity — the bound the real
	// composition's free ring enforces and SCQ's liveness argument needs.
	RingOrder uint
	// CheckInvariants, when set, runs after every event. Use
	// CheckMSInvariants for the MS queue and CheckHeadSanity for the
	// flawed comparators (whose in-flight states legitimately break the
	// stronger MS properties).
	CheckInvariants func(*State) error
	// CheckLedger, when set, also runs after every event with the process
	// states (CheckValoisLedger needs the references each process holds).
	CheckLedger func(*State, []Proc) error
	// MaxPaths caps the number of distinct states visited; the result
	// reports truncation. Zero means DefaultMaxPaths.
	MaxPaths int
	// LoopBudget is the fallback bound on consecutive no-write events while
	// the shared state is unchanged before a process is parked. The primary
	// spin detector is exact: a process that *revisits* its local state
	// within an unchanged-version window has entered a deterministic loop
	// and is parked at once. The budget only catches loops the anchor-based
	// detector can miss (a cycle entered after the window began). Zero
	// selects DefaultLoopBudget, which exceeds the longest read-only
	// straight-line stretch in any modelled machine.
	LoopBudget int
}

// Defaults for Config.
const (
	DefaultMaxPaths   = 2_000_000
	DefaultLoopBudget = 12
	DefaultRingOrder  = 3 // 8 slots, capacity 4
)

// Violation describes one failed interleaving or state.
type Violation struct {
	// Kind is "invariant", "linearizability", "parked" or "blocked".
	Kind string
	// Schedule is the sequence of process ids stepped, from the initial
	// state to the failure.
	Schedule []int
	// Detail is a human-readable description.
	Detail string
	// History is the completed-operation history at the failure (for
	// linearizability violations).
	History []linearizability.Op
	// Minimized, when non-nil, is a shortened schedule that still reproduces
	// a violation of the same Kind under Replay (replay.go). Run fills it in
	// for every finding.
	Minimized []int
}

// String formats the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s after schedule %v: %s", v.Kind, v.Schedule, v.Detail)
}

// Result summarises an exploration.
type Result struct {
	// Paths is the number of distinct states explored: distinct memo keys,
	// which in ModePaths include the history's endpoint order.
	Paths int
	// Events is the total number of shared-memory events executed.
	Events int
	// Blocked counts states in which unfinished processes existed but
	// every one was spinning in a read-only loop — a full deadlock. For
	// every modelled algorithm this should be zero (even the blocking ones
	// always have *some* process that can run).
	Blocked int
	// Parked counts detections of a process spinning in a read-only loop
	// while the shared state is quiescent: the process cannot complete its
	// operation until some *other* process runs — the definition of a
	// blocking algorithm (section 1). For the non-blocking MS queue this is
	// zero: a lock-free operation alone in a quiescent window always
	// completes, because its CASes can only fail after someone else's
	// write. For Mellor-Crummey's queue the dequeuer parks in the
	// swap-to-link window.
	Parked int
	// Capped reports that MaxPaths truncated the exploration.
	Capped bool
	// Violations collects the first few invariant, linearizability and
	// blocked findings.
	Violations []Violation
}

// maxViolations bounds the report size.
const maxViolations = 8

// Run explores the configured workload exhaustively.
func Run(cfg Config) (Result, error) {
	e, state, procs, err := newExplorer(cfg)
	if err != nil {
		return Result{}, err
	}
	e.dfs(state, procs, nil)
	if e.err == nil {
		e.minimizeViolations()
	}
	return e.res, e.err
}

// newExplorer validates the configuration and builds the initial state, the
// process set and the explorer — the setup shared by Run and Replay.
func newExplorer(cfg Config) (*explorer, *State, []Proc, error) {
	if len(cfg.Scripts) == 0 {
		return nil, nil, nil, fmt.Errorf("explore: no process scripts")
	}
	if cfg.ArenaSize < 1 {
		return nil, nil, nil, fmt.Errorf("explore: ArenaSize must be >= 1")
	}
	if err := validateValues(cfg.Scripts); err != nil {
		return nil, nil, nil, err
	}
	maxPaths := cfg.MaxPaths
	if maxPaths == 0 {
		maxPaths = DefaultMaxPaths
	}
	loopBudget := cfg.LoopBudget
	if loopBudget == 0 {
		loopBudget = DefaultLoopBudget
	}

	state := NewState(cfg.ArenaSize)
	state.NoHistory = cfg.Mode == ModeGraph
	switch cfg.Algo {
	case AlgoValois:
		InitValoisQueue(state)
	case AlgoEpoch:
		InitEpochQueue(state, len(cfg.Scripts), false)
	case AlgoEpochPinKeyed:
		InitEpochQueue(state, len(cfg.Scripts), true)
	case AlgoRing:
		order := cfg.RingOrder
		if order == 0 {
			order = DefaultRingOrder
		}
		InitRingQueue(state, order)
	default:
		InitQueue(state)
	}
	procs := make([]Proc, len(cfg.Scripts))
	for i, script := range cfg.Scripts {
		procs[i] = Proc{ID: i, Algo: cfg.Algo, Ops: script}
	}

	e := &explorer{
		cfg:        cfg,
		maxPaths:   maxPaths,
		loopBudget: loopBudget,
		visited:    make(map[string]struct{}),
	}
	return e, state, procs, nil
}

type explorer struct {
	cfg        Config
	maxPaths   int
	loopBudget int
	// visited is the memo of explored keys. A nil memo makes dfs enumerate
	// every interleaving, which the package tests use as the oracle.
	visited map[string]struct{}
	// onLeaf, when set, is called with the final state of each complete
	// execution before leaf checks its history (a test seam; nil in
	// production).
	onLeaf func(*State)
	res    Result
	err    error
}

// candidates returns the runnable processes — unfinished and not parked at
// the current version — and the number of unfinished processes.
func candidates(s *State, procs []Proc) ([]int, int) {
	var cands []int
	unfinished := 0
	for i := range procs {
		if procs[i].Done() {
			continue
		}
		unfinished++
		if procs[i].parked && procs[i].parkedAt == s.Version {
			continue
		}
		cands = append(cands, i)
	}
	return cands, unfinished
}

// leaf checks a complete execution's history (ModePaths) with the exact
// linearizability decision procedure.
func (e *explorer) leaf(s *State, schedule []int) {
	if e.onLeaf != nil {
		e.onLeaf(s)
	}
	ok, err := linearizability.CheckExact(linearizability.History{Ops: s.History})
	if err != nil {
		e.err = fmt.Errorf("explore: %w", err)
		return
	}
	if !ok {
		e.violation(Violation{
			Kind:     "linearizability",
			Schedule: append([]int(nil), schedule...),
			Detail:   describeHistory(s.History),
			History:  append([]linearizability.Op(nil), s.History...),
		})
	}
}

// blockedState records a full deadlock: unfinished processes exist but every
// one is spinning without any possible state change.
func (e *explorer) blockedState(s *State, unfinished int, schedule []int) {
	e.res.Blocked++
	if e.res.Blocked == 1 {
		e.violation(Violation{
			Kind:     "blocked",
			Schedule: append([]int(nil), schedule...),
			Detail:   fmt.Sprintf("%d process(es) spin forever; shared state: %s", unfinished, s.key()),
		})
	}
}

// advance clones (s, procs), steps process i, applies spin detection and
// the configured checks, and returns the successor. ok is false when a
// check rejected the post-state: the violation has been recorded and the
// successor's subtree is pruned, the way dfs always has. schedule is the
// path *up to* s; it is only read, never retained.
func (e *explorer) advance(s *State, procs []Proc, i int, schedule []int) (s2 *State, procs2 []Proc, ok bool) {
	s2 = s.Clone()
	procs2 = append([]Proc(nil), procs...)
	p := &procs2[i]
	// The held multiset is mutated in place by the Valois machine;
	// detach it from the parent node's backing array before stepping.
	p.held = append([]int32(nil), p.held...)
	if p.parked {
		p.parked = false
		p.quiet = 0
	}
	// A retry that follows someone else's write is productive progress,
	// not spinning: spin detection applies only within a window in
	// which the shared version stays unchanged. The window's anchor is
	// the local state at its start; revisiting the anchor without any
	// write means the process is in a deterministic read-only loop.
	if s2.Version != p.lastSeen {
		p.quiet = 0
		p.anchor = p.localKey()
	}
	opsBefore := p.cur
	wrote := p.step(s2)
	e.res.Events++
	switch {
	case wrote || p.cur != opsBefore:
		p.quiet = 0
		p.anchor = ""
	default:
		p.quiet++
		if p.localKey() == p.anchor || p.quiet > e.loopBudget {
			p.parked = true
			p.parkedAt = s2.Version
			p.quiet = 0
			p.anchor = ""
			e.res.Parked++
			if e.res.Parked == 1 {
				e.violation(Violation{
					Kind:     "parked",
					Schedule: append(append([]int(nil), schedule...), i),
					Detail: fmt.Sprintf("process %d spins in a read-only loop and cannot complete until another process runs (pc state %s)",
						p.ID, p.localKey()),
				})
			}
		}
	}
	p.lastSeen = s2.Version
	if e.cfg.CheckInvariants != nil {
		if err := e.cfg.CheckInvariants(s2); err != nil {
			e.violation(Violation{
				Kind:     "invariant",
				Schedule: append(append([]int(nil), schedule...), i),
				Detail:   err.Error(),
			})
			return s2, procs2, false
		}
	}
	if e.cfg.CheckLedger != nil {
		if err := e.cfg.CheckLedger(s2, procs2); err != nil {
			e.violation(Violation{
				Kind:     "invariant",
				Schedule: append(append([]int(nil), schedule...), i),
				Detail:   err.Error(),
			})
			return s2, procs2, false
		}
	}
	return s2, procs2, true
}

func (e *explorer) dfs(s *State, procs []Proc, schedule []int) {
	if e.err != nil || e.res.Capped {
		return
	}

	if e.visited != nil {
		key := nodeKey(s, procs)
		if !s.NoHistory {
			key += histKey(s, procs)
		}
		if _, seen := e.visited[key]; seen {
			return
		}
		e.visited[key] = struct{}{}
		e.res.Paths++
		if e.res.Paths >= e.maxPaths {
			e.res.Capped = true
			return
		}
	}

	cands, unfinished := candidates(s, procs)

	if unfinished == 0 {
		if !s.NoHistory {
			e.leaf(s, schedule)
		}
		return
	}

	if len(cands) == 0 {
		e.blockedState(s, unfinished, schedule)
		return
	}

	for _, i := range cands {
		s2, procs2, ok := e.advance(s, procs, i, schedule)
		if !ok {
			continue
		}
		e.dfs(s2, procs2, append(schedule, i))
		if e.err != nil || e.res.Capped {
			return
		}
	}
}

func (e *explorer) violation(v Violation) {
	if len(e.res.Violations) < maxViolations {
		e.res.Violations = append(e.res.Violations, v)
	}
}

// nodeKey serialises shared state plus process machine states for the memo.
// Together they determine every future step and check, so two paths that
// reach the same key have the same futures. The event clock and history
// are excluded: they are path properties, which histKey adds in ModePaths.
func nodeKey(s *State, procs []Proc) string {
	key := s.key()
	for i := range procs {
		p := &procs[i]
		// A park older than the current version has already expired, so it
		// is encoded as "not parked"; raw version values would make
		// equivalent states look distinct.
		parkedNow := p.parked && p.parkedAt == s.Version
		fresh := p.lastSeen == s.Version // raw versions are monotone; encode relatively
		key += fmt.Sprintf("|%s q%d k%v f%v a%s", p.localKey(), p.quiet, parkedNow, fresh, p.anchor)
	}
	return key
}

// histKey encodes what of the history a future linearizability verdict can
// depend on: the order of its endpoints — each completed operation's invoke
// and return, and the invoke of each operation started but not returned —
// without their clock values. linearizability.CheckExact reads Invoke and
// Return only through < comparisons, and every endpoint still to come lies
// after all of these, so two paths reaching the same nodeKey with the same
// endpoint order complete to histories with the same verdicts: the memo is
// exact for paths mode, and the search reaches every distinct history.
func histKey(s *State, procs []Proc) string {
	type endpoint struct {
		at  int64
		tag string
	}
	eps := make([]endpoint, 0, 2*len(s.History)+len(procs))
	lastInvoke := make([]int64, len(procs))
	for _, op := range s.History {
		eps = append(eps,
			endpoint{op.Invoke, fmt.Sprintf("i%d", op.Process)},
			endpoint{op.Return, fmt.Sprintf("r%d:%d:%d", op.Process, op.Kind, op.Value)})
		lastInvoke[op.Process] = max(lastInvoke[op.Process], op.Invoke)
	}
	// p.invoked keeps the last started operation's clock after it returns,
	// so it marks a pending operation only when it is newer than p's last
	// completed invoke.
	for i := range procs {
		if procs[i].invoked > lastInvoke[i] {
			eps = append(eps, endpoint{procs[i].invoked, fmt.Sprintf("i%d", i)})
		}
	}
	sort.Slice(eps, func(a, b int) bool { return eps[a].at < eps[b].at })
	var b strings.Builder
	b.WriteString("||")
	for _, ep := range eps {
		b.WriteString(ep.tag)
		b.WriteByte(' ')
	}
	return b.String()
}

func validateValues(scripts [][]OpSpec) error {
	seen := make(map[int]bool)
	for pi, script := range scripts {
		for oi, op := range script {
			if !op.Enqueue {
				continue
			}
			if seen[op.Value] {
				return fmt.Errorf("explore: process %d op %d re-enqueues value %d; values must be unique", pi, oi, op.Value)
			}
			seen[op.Value] = true
		}
	}
	return nil
}

func describeHistory(ops []linearizability.Op) string {
	// Name the first concrete defect for the report.
	if vs := linearizability.Check(linearizability.History{Ops: ops}); len(vs) > 0 {
		return vs[0].String()
	}
	return "history rejected by the exact checker"
}

// CheckTwoLockInvariants verifies section 3.1 for the two-lock queue,
// whose property 5 the paper itself qualifies: "Tail always points to the
// last node in the linked list, *unless it is protected by the tail lock*".
// The model exposes the transient the qualification covers: with the tail
// lock held between an enqueuer's link and its Tail swing, a dequeuer can
// advance Head past the old dummy and free it while Tail still references
// it. No process ever dereferences Tail in that window (the lock holder
// only overwrites it), so the algorithm is safe — but the unqualified MS
// property 5 does not hold, and the checker must not demand it.
func CheckTwoLockInvariants(s *State) error {
	if s.Head.IsNil() {
		return fmt.Errorf("property 4: Head is null")
	}
	if s.isFree(s.Head.Idx) {
		return fmt.Errorf("property 4: Head %v points to a free node", s.Head)
	}
	chain := map[int32]bool{}
	idx := s.Head.Idx
	for hops := 0; ; hops++ {
		if hops > len(s.Nodes) {
			return fmt.Errorf("property 1: list from Head does not terminate (cycle)")
		}
		if chain[idx] {
			return fmt.Errorf("property 1: node %d appears twice in the list", idx)
		}
		chain[idx] = true
		if s.isFree(idx) {
			return fmt.Errorf("property 1: list node %d is on the free list", idx)
		}
		next := s.Nodes[idx].Next
		if next.IsNil() {
			break
		}
		idx = next.Idx
	}
	if s.TLock {
		return nil // Tail is mid-update under its lock; the paper's caveat
	}
	if s.Tail.IsNil() {
		return fmt.Errorf("property 5: Tail is null")
	}
	if !chain[s.Tail.Idx] {
		return fmt.Errorf("property 5: Tail %v not reachable from Head %v with the tail lock free", s.Tail, s.Head)
	}
	return nil
}

// CheckHeadSanity is the weak structural check suitable for the flawed
// comparators, whose in-flight states legitimately violate the MS
// invariants (Stone's unlinked suffix detaches Tail from the list). It
// verifies only that Head points at an allocated (non-free) node and that
// the list from Head is acyclic — the properties whose violation is
// unambiguous corruption. Stone's ABA race breaks it.
func CheckHeadSanity(s *State) error {
	if s.Head.IsNil() {
		return fmt.Errorf("head sanity: Head is null")
	}
	if s.isFree(s.Head.Idx) {
		return fmt.Errorf("head sanity: Head %v points to a free node", s.Head)
	}
	seen := map[int32]bool{}
	idx := s.Head.Idx
	for hops := 0; ; hops++ {
		if hops > len(s.Nodes) || seen[idx] {
			return fmt.Errorf("head sanity: cycle in the list from Head")
		}
		seen[idx] = true
		next := s.Nodes[idx].Next
		if next.IsNil() {
			return nil
		}
		idx = next.Idx
	}
}
