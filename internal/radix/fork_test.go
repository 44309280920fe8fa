package radix

import (
	"sync"
	"testing"

	"radixvm/internal/hw"
)

// TestForkClonesValues: the child sees exactly the parent's mappings —
// folded, uniform-filled, and per-slot diverged alike — as private copies,
// and visit reports every distinct value with its range.
func TestForkClonesValues(t *testing.T) {
	m, _, tr := newCopyTree(1)
	c := m.CPU(0)
	// A folded aligned subtree, a few scattered leaves, and a diverged
	// page inside the fold.
	lo := span(1) * 8
	r := tr.LockRange(c, lo, lo+span(1))
	r.Entry(0).SetClone(&val{x: 3})
	r.Unlock()
	for _, vpn := range []uint64{7, 1000, span(2) + 5} {
		r = tr.LockPage(c, vpn)
		v := val{x: int(vpn)}
		r.Entry(0).SetClone(&v)
		r.Unlock()
	}
	r = tr.LockPage(c, lo+9)
	r.Entry(0).Value().x = 42
	r.Unlock()

	visited := 0
	child := tr.ForkFlush(c, func(_ *hw.CPU, flo, fhi uint64, src, dst *val) {
		visited++
		if src.x != dst.x {
			t.Errorf("visit [%d,%d): src x=%d, dst x=%d", flo, fhi, src.x, dst.x)
		}
	}, nil)
	if visited == 0 {
		t.Fatal("visit never called")
	}
	// Child matches the parent everywhere.
	for _, vpn := range []uint64{7, 1000, span(2) + 5, lo, lo + 9, lo + 100} {
		p, ch := tr.Lookup(c, vpn), child.Lookup(c, vpn)
		switch {
		case p == nil && ch == nil:
		case p == nil || ch == nil:
			t.Fatalf("vpn %d: parent=%v child=%v", vpn, p, ch)
		case p.x != ch.x:
			t.Fatalf("vpn %d: parent x=%d child x=%d", vpn, p.x, ch.x)
		}
	}
	if got := child.Lookup(c, lo+9); got == nil || got.x != 42 {
		t.Fatalf("diverged page in fold: child sees %+v, want x=42", got)
	}
	// Copies are private in both directions.
	r = child.LockPage(c, 1000)
	r.Entry(0).Value().x = -1
	r.Unlock()
	if tr.Lookup(c, 1000).x != 1000 {
		t.Fatal("child mutation leaked into the parent")
	}
	r = tr.LockPage(c, 7)
	r.Entry(0).Value().x = -2
	r.Unlock()
	if child.Lookup(c, 7).x != 7 {
		t.Fatal("parent mutation leaked into the child")
	}
	// The parent's locks are all released: a whole-space range lock works.
	r = tr.LockRange(c, lo, lo+span(1))
	r.Unlock()
}

// TestForkPreservesCompactness: forking a mostly-uniform tree must not
// materialize slot groups on either side beyond what the parent already
// diverged — the whole point of the structural clone over a replay of
// per-slot writes.
func TestForkPreservesCompactness(t *testing.T) {
	m, _, tr := newCopyTree(1)
	c := m.CPU(0)
	lo := span(1) * 4
	r := tr.LockRange(c, lo, lo+span(1)) // one folded interior slot
	r.Entry(0).SetClone(&val{x: 1})
	r.Unlock()
	before := tr.GroupsEver()
	child := tr.ForkFlush(c, nil, nil)
	if grew := tr.GroupsEver() - before; grew != 0 {
		t.Errorf("fork materialized %d parent groups, want 0", grew)
	}
	// The child mirrors the parent's diverged groups exactly (the only
	// groups the parent has are the root's and the L2 node's slots holding
	// the child link / folded value).
	if pg, cg := countLiveGroups(tr), countLiveGroups(child); cg > pg {
		t.Errorf("child materialized %d groups, parent has %d — clone must not diverge further", cg, pg)
	}
	if got := child.Lookup(c, lo+5); got == nil || got.x != 1 {
		t.Fatalf("child folded value = %+v, want x=1", got)
	}
}

func countLiveGroups[V any](t *Tree[V]) int64 { return t.groupsLive.Load() }

// TestForkMidMaterializationBusyPeriod is the regression for the mid-fork
// under-wait (ROADMAP open item 4, closed this PR): a slot group that
// materializes while a fork holds the node's bits must restore gates whose
// busy period includes the fork's — merged at materialization from the
// node's in-progress-fork record — not just the pre-fork uniform table's.
// Without the merge, a locker whose clock sits between the fork's arrival
// and the (later) bulk-prime time recorded in the uniform table takes the
// waitGate inversion pass-through and under-waits the fork's critical
// section.
func TestForkMidMaterializationBusyPeriod(t *testing.T) {
	m, _, tr := newCopyTree(3)
	c0, c1, c2 := m.CPU(0), m.CPU(1), m.CPU(2)

	// Seed from a core whose clock is far ahead: first a folded value over
	// the whole root slot, then a LockPage that expands it into a chain
	// down to the leaf — every chain node's uniform table records a
	// bulk-prime busy period around H.
	const H = 1_000_000
	c1.Tick(H)
	r := tr.LockPage(c1, 5)
	v := val{x: 1}
	r.Entry(0).SetClone(&v) // folded: covers the whole root slot
	r.Unlock()
	r = tr.LockPage(c1, 5) // expands to the leaf at c1's clock (~H)
	r.Unlock()

	// Fork from a core far behind the seeder (gang skew), and stretch its
	// critical section past the locker's clock M, with L < M < H.
	const L = 10_000
	const M = 50_000
	c0.Tick(L)
	c2.Tick(M)

	var forkEnd uint64
	sawLeaf := false
	tr.ForkFlush(c0, func(_ *hw.CPU, lo, hi uint64, _, _ *val) {
		if hi-lo == 1 { // a per-page visit: only the leaf produces these
			sawLeaf = true
		}
	}, func(cpu *hw.CPU) {
		if !sawLeaf || forkEnd != 0 {
			return // not the leaf node's flush
		}
		// Mid-fork, with the leaf's bits held: a reader's touch of vpn 100
		// materializes its (previously uniform) group. Its gates must carry
		// the fork's busy period, which began around L.
		if got := tr.Lookup(c2, 100); got == nil || got.x != 1 {
			t.Fatalf("vpn 100 = %+v, want the uniform fill x=1", got)
		}
		cpu.Tick(100_000) // stretch the fork's critical section past M
		forkEnd = cpu.Now()
	})
	if forkEnd == 0 {
		t.Fatal("leaf flush never ran")
	}

	// The locker arrived inside the fork's (merged) busy period, so it must
	// wait out the critical section — not pass through because the uniform
	// table's bulk-prime busyStart H postdates its clock.
	lr := tr.LockPage(c2, 100)
	lr.Unlock()
	if got := c2.Now(); got < forkEnd {
		t.Fatalf("locker under-waited the fork's critical section: clock %d < fork end %d", got, forkEnd)
	}
}

// TestForkCostModel: fork bills cloned nodes by their logical size —
// header-sized ticks for uniform nodes plus a cache line per materialized
// group — never the full simulated page the pre-cost-model fork charged.
func TestForkCostModel(t *testing.T) {
	pz := uint64(2560)
	if got, want := ForkNodeCost(pz, 0), pz*ForkHeaderBytes/4096; got != want {
		t.Fatalf("uniform node cost = %d, want %d", got, want)
	}
	if ForkNodeCost(pz, 0) >= pz/2 {
		t.Fatalf("uniform header copy (%d cycles) not cheaper than half a page copy (%d)", ForkNodeCost(pz, 0), pz/2)
	}
	full := ForkNodeCost(pz, groupsPerNode)
	if full < 2*pz {
		t.Fatalf("fully diverged node (%d cycles) cheaper than its 8 KB of slots (%d)", full, 2*pz)
	}

	// A mostly-folded space forks for strictly less than the old flat
	// page-copy charge per node.
	m, _, tr := newCopyTree(1)
	c := m.CPU(0)
	pageZero := m.Config().PageZero
	lo := span(1) * 4
	r := tr.LockRange(c, lo, lo+span(1)) // one folded interior slot
	r.Entry(0).SetClone(&val{x: 1})
	r.Unlock()
	before := c.Now()
	child := tr.ForkFlush(c, nil, nil)
	delta := c.Now() - before
	nodes := uint64(child.NodesEver())
	if delta >= nodes*pageZero {
		t.Errorf("fork cost %d cycles >= old flat billing %d (%d nodes x PageZero)", delta, nodes*pageZero, nodes)
	}
	if delta < nodes*ForkNodeCost(pageZero, 0) {
		t.Errorf("fork cost %d cycles < %d header copies (%d)", delta, nodes, nodes*ForkNodeCost(pageZero, 0))
	}
}

// TestConcurrentForksConsistent races several cores forking one parent
// simultaneously — the spawn-server pattern the hand-over-hand sweep
// exists for: no deadlock at the tree locks, every child sees exactly the
// parent's mappings, and the parent's locks are all free afterwards.
func TestConcurrentForksConsistent(t *testing.T) {
	const forkers = 4
	m, rc, tr := newCopyTree(forkers)
	seedC := m.CPU(0)
	// Per-forker diverged leaves plus one shared folded range.
	for f := 0; f < forkers; f++ {
		for p := 0; p < 4; p++ {
			vpn := uint64(f+1)*span(1) + uint64(p)
			r := tr.LockPage(seedC, vpn)
			v := val{x: f*100 + p}
			r.Entry(0).SetClone(&v)
			r.Unlock()
		}
	}
	foldLo := span(1) * 16
	r := tr.LockRange(seedC, foldLo, foldLo+span(1))
	r.Entry(0).SetClone(&val{x: 7777})
	r.Unlock()

	children := make([]*Tree[val], forkers)
	var wg sync.WaitGroup
	for f := 0; f < forkers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			c := m.CPU(f)
			for k := 0; k < 10; k++ {
				children[f] = tr.ForkFlush(c, nil, nil)
				rc.Maintain(c)
			}
		}(f)
	}
	wg.Wait()
	for f, child := range children {
		for ff := 0; ff < forkers; ff++ {
			for p := 0; p < 4; p++ {
				vpn := uint64(ff+1)*span(1) + uint64(p)
				got := child.Lookup(seedC, vpn)
				if got == nil || got.x != ff*100+p {
					t.Fatalf("child %d vpn %d: got %+v, want x=%d", f, vpn, got, ff*100+p)
				}
			}
		}
		if got := child.Lookup(seedC, foldLo+99); got == nil || got.x != 7777 {
			t.Fatalf("child %d folded value: %+v", f, got)
		}
	}
	// Every bit was released: a whole-space range lock goes through.
	r = tr.LockRange(seedC, 1, MaxVPN-1)
	r.Unlock()
}

// TestForkVsConcurrentLockRange races a fork against range lock/write
// cycles in a disjoint and an overlapping region: no deadlock, no torn
// snapshot (the child must hold either the old or the new value of each
// whole range, never a mix within one folded write). The written ranges
// live inside one node — the granularity at which the hand-over-hand
// fork promises atomicity; ranges spanning node boundaries may split at
// a boundary, by documented design (see fork.go). The lazy fork does not
// share that relaxation: TestLazyForkRangeAtomicity exercises the
// cross-boundary case against ForkLazy.
func TestForkVsConcurrentLockRange(t *testing.T) {
	m, rc, tr := newCopyTree(2)
	c0, c1 := m.CPU(0), m.CPU(1)
	seed := func(c *hw.CPU, lo, n uint64, x int) {
		r := tr.LockRange(c, lo, lo+n)
		v := val{x: x}
		for i := range r.Entries() {
			r.Entry(i).SetClone(&v)
		}
		r.Unlock()
	}
	seed(c0, 100, 8, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 50; k++ {
			seed(c1, 100, 8, 10+k) // overlaps the forked range
			seed(c1, 5000, 4, k)   // disjoint
			rc.Maintain(c1)
		}
	}()
	for k := 0; k < 20; k++ {
		child := tr.ForkFlush(c0, nil, nil)
		// Snapshot atomicity: within [100,108) all pages carry one value.
		first := child.Lookup(c0, 100)
		if first == nil {
			t.Fatalf("fork %d: seeded page missing", k)
		}
		for vpn := uint64(101); vpn < 108; vpn++ {
			got := child.Lookup(c0, vpn)
			if got == nil || got.x != first.x {
				t.Fatalf("fork %d: torn snapshot at %d: %v vs %v", k, vpn, got, first)
			}
		}
		rc.Maintain(c0)
	}
	wg.Wait()
}
