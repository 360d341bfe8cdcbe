package metrics

import (
	"regexp"
	"testing"
	"time"
)

// TestSiteOrderLockdown pins the numeric value of every probe site.
//
// The enum order is load-bearing in two places that only comments defended
// until now: Snapshot.Retries() sums the contiguous range
// [EnqueueLinkCAS, RingCatchup], and the wire/epoch/netchaos sites were
// deliberately appended *after* that range so a new site cannot silently
// skew the aggregate retry report. Appending a site in the middle (or
// reordering for tidiness) changes every later site's value — and with it
// the meaning of recorded snapshots and the exporter's series — so any
// such change must show up here as an explicit, reviewed diff.
func TestSiteOrderLockdown(t *testing.T) {
	want := []struct {
		site  Site
		value uint8
		label string
	}{
		{EnqueueLinkCAS, 0, "enq_link_cas"},
		{EnqueueTailSwing, 1, "enq_tail_swing"},
		{EnqueueInconsistent, 2, "enq_inconsistent"},
		{DequeueHeadCAS, 3, "deq_head_cas"},
		{DequeueTailSwing, 4, "deq_tail_swing"},
		{DequeueInconsistent, 5, "deq_inconsistent"},
		{SnapshotRetry, 6, "snapshot_retry"},
		{RingEnqSlot, 7, "ring_enq_slot"},
		{RingDeqSlot, 8, "ring_deq_slot"},
		{RingCatchup, 9, "ring_catchup"},
		{LockSpin, 10, "lock_spin"},
		{StealHit, 11, "steal_hit"},
		{StealMiss, 12, "steal_miss"},
		{WireEnq, 13, "wire_enq"},
		{WireDeq, 14, "wire_deq"},
		{WireEmpty, 15, "wire_empty"},
		{WireRetry, 16, "wire_retry"},
		{WireControl, 17, "wire_control"},
		{EpochPin, 18, "epoch_pin"},
		{EpochAdvance, 19, "epoch_advance"},
		{EpochFlush, 20, "epoch_flush"},
		{NetFault, 21, "net_fault"},
		{WireCorrupt, 22, "wire_corrupt"},
	}
	if len(want) != NumSites {
		t.Fatalf("lockdown table has %d entries, NumSites = %d; a new site must be appended to both",
			len(want), NumSites)
	}
	for _, w := range want {
		if uint8(w.site) != w.value {
			t.Errorf("%s = %d, locked down as %d: sites were reordered or inserted mid-enum",
				w.site, uint8(w.site), w.value)
		}
		if got := w.site.Label(); got != w.label {
			t.Errorf("%s.Label() = %q, locked down as %q: exporter series labels are a wire contract",
				w.site, got, w.label)
		}
	}
}

// TestRetriesRangeContiguous locks the Retries() aggregate to exactly the
// retry-class sites: every site in [EnqueueLinkCAS, RingCatchup] counts,
// nothing outside it does. If someone appends a retry-class site after the
// range (or a non-retry site inside it) the aggregate silently changes
// meaning; this test turns that into a failure.
func TestRetriesRangeContiguous(t *testing.T) {
	retryClass := map[Site]bool{
		EnqueueLinkCAS: true, EnqueueTailSwing: true, EnqueueInconsistent: true,
		DequeueHeadCAS: true, DequeueTailSwing: true, DequeueInconsistent: true,
		SnapshotRetry: true, RingEnqSlot: true, RingDeqSlot: true, RingCatchup: true,
	}
	for s := Site(0); int(s) < NumSites; s++ {
		inRange := s >= EnqueueLinkCAS && s <= RingCatchup
		if inRange != retryClass[s] {
			t.Errorf("site %s: in Retries() range = %v, retry-class = %v", s, inRange, retryClass[s])
		}
	}

	// Behavioral check: one event at each site, Retries() must count the
	// retry class alone.
	p := NewProbe()
	for s := 0; s < NumSites; s++ {
		p.Add(Site(s), 1)
	}
	snap := p.Snapshot()
	if got, want := snap.Retries(), int64(len(retryClass)); got != want {
		t.Errorf("Retries() over one event per site = %d, want %d (the retry-class sites)", got, want)
	}
	if got, want := snap.Events(), int64(NumSites); got != want {
		t.Errorf("Events() = %d, want %d", got, want)
	}
}

// TestSiteLabelsDistinct: labels and report strings are unique and
// well-formed across all sites, including hypothetical future ones hitting
// the default branch.
func TestSiteLabelsDistinct(t *testing.T) {
	token := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	labels := make(map[string]Site)
	strs := make(map[string]Site)
	for s := Site(0); int(s) < NumSites; s++ {
		l := s.Label()
		if !token.MatchString(l) {
			t.Errorf("site %d label %q is not a snake_case token", s, l)
		}
		if prev, dup := labels[l]; dup {
			t.Errorf("sites %d and %d share label %q", prev, s, l)
		}
		labels[l] = s
		if prev, dup := strs[s.String()]; dup {
			t.Errorf("sites %d and %d share String %q", prev, s, s.String())
		}
		strs[s.String()] = s
	}
	if got := Site(200).Label(); got != "site_200" {
		t.Errorf("unknown site label = %q, want site_200", got)
	}
}

// TestBucketBoundsExported: the exported bucket geometry matches the
// Observe filing rule — an observation of d lands in the bucket whose
// bounds bracket it — so exporters can render boundaries without
// re-deriving the log-bucket rule.
func TestBucketBoundsExported(t *testing.T) {
	var prev time.Duration
	for b := 0; b < NumLatencyBuckets; b++ {
		up := BucketUpperBound(b)
		mid := BucketMidpoint(b)
		if b > 0 && up <= prev {
			t.Errorf("bucket %d upper bound %v not strictly above bucket %d's %v", b, up, b-1, prev)
		}
		if mid > up {
			t.Errorf("bucket %d midpoint %v above its upper bound %v", b, mid, up)
		}
		prev = up
	}
	// Filing rule round-trip: observe one duration per bucket boundary and
	// check the snapshot files it inside the advertised bounds.
	var h Histogram
	for _, d := range []time.Duration{0, 1, 2, 3, 1000, time.Millisecond, time.Hour} {
		h.Observe(d)
	}
	snap := h.Snapshot()
	for b, n := range snap.Buckets {
		if n == 0 {
			continue
		}
		lo := time.Duration(0)
		if b > 0 {
			lo = BucketUpperBound(b-1) + 1
		}
		if BucketUpperBound(b) < lo {
			t.Errorf("bucket %d: bounds inverted", b)
		}
	}
}
