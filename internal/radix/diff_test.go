package radix

import (
	"math/rand"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/rbtree"
)

// TestDifferentialVsRBTree drives identical randomized op sequences
// through the radix tree and the red-black tree that serves as the Linux
// baseline's VMA index, then compares the final mappings page by page.
// The rbtree is the straightforward per-page reference model: whatever
// the radix tree's folding, expansion, lock-bit propagation, lazy group
// materialization, and reclamation do internally, the visible mapping
// must match a flat ordered map.
func TestDifferentialVsRBTree(t *testing.T) {
	const (
		trials = 6
		window = uint64(1 << 14) // covers leaf, level-1, and level-2 folds
		ops    = 400
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		m, rc, tr := newTree(1)
		c := m.CPU(0)
		ref := rbtree.New[int]()

		for op := 0; op < ops; op++ {
			lo := uint64(rng.Intn(int(window)))
			ln := uint64(rng.Intn(700) + 1)
			hi := lo + ln
			if hi > window {
				hi = window
			}
			if hi == lo {
				hi = lo + 1
			}
			switch rng.Intn(6) {
			case 0, 1, 2: // mmap-style: fold the range to one value
				v := &val{op}
				setRange(tr, c, lo, hi, v)
				for p := lo; p < hi; p++ {
					ref.Insert(c, p, op)
				}
			case 3: // munmap-style: clear the range
				clearRange(tr, c, lo, hi)
				for p := lo; p < hi; p++ {
					ref.Delete(c, p)
				}
			case 4: // pagefault-style: expand down to one leaf page
				r := tr.LockPage(c, lo)
				e := r.Entry(0)
				if v := e.Value(); v != nil {
					v.x = op
					e.Set(v)
					// The fold may cover more than this page, but the
					// in-place update must be visible on exactly the
					// pages the entry spans.
					for p := e.Lo; p < e.Hi; p++ {
						ref.Insert(c, p, op)
					}
				}
				r.Unlock()
			default: // mid-sequence spot check
				if got, want := lookupVal(tr, c, lo), refGet(ref, c, lo); got != want {
					t.Fatalf("trial %d op %d: Lookup(%d) = %d, rbtree = %d", trial, op, lo, got, want)
				}
			}
			rc.Maintain(c)
		}
		quiesce(rc)

		// Final comparison over the whole window, plus a stripe beyond it
		// to catch folds bleeding out of range.
		for p := uint64(0); p < window+64; p++ {
			if got, want := lookupVal(tr, c, p), refGet(ref, c, p); got != want {
				t.Fatalf("trial %d: final mapping diverged at page %d: radix %d, rbtree %d", trial, p, got, want)
			}
		}
	}
}

// lookupVal flattens a radix lookup to an int (-1 = unmapped).
func lookupVal(tr *Tree[val], c *hw.CPU, p uint64) int {
	if v := tr.Lookup(c, p); v != nil {
		return v.x
	}
	return -1
}

// refGet flattens an rbtree lookup to an int (-1 = unmapped).
func refGet(ref *rbtree.Tree[int], c *hw.CPU, p uint64) int {
	if v, ok := ref.Get(c, p); ok {
		return v
	}
	return -1
}

// TestDifferentialEagerVsLazyFork drives identical randomized op sequences
// through two fork families — one all-eager, one all-lazy (the two modes
// must not mix within a family) — with a fork in the middle: seed the
// parent, fork, then keep mutating parent and child with the same ops on
// both sides. The final mappings of parent and child must match page by
// page across the two strategies and against rbtree reference models.
// Virtual *time* is not compared across strategies: the lazy fork bills
// each node copy at divergence instead of at fork, so the clocks
// legitimately differ; what must hold is that the lazy schedule is
// deterministic, which TestLazyForkDeterministic pins down below.
func TestDifferentialEagerVsLazyFork(t *testing.T) {
	const (
		trials = 4
		window = uint64(1 << 13)
		ops    = 150
	)
	for trial := 0; trial < trials; trial++ {
		mE, rcE, trE := newCopyTree(1)
		mL, rcL, trL := newCopyTree(1)
		cE, cL := mE.CPU(0), mL.CPU(0)
		parentRef := rbtree.New[int]()
		childRef := rbtree.New[int]()

		apply := func(rng *rand.Rand, eager, lazy *Tree[val], ref *rbtree.Tree[int], op int) {
			lo := uint64(rng.Intn(int(window)))
			ln := uint64(rng.Intn(700) + 1)
			hi := minU(lo+ln, window)
			if hi == lo {
				hi = lo + 1
			}
			switch rng.Intn(5) {
			case 0, 1, 2:
				v := &val{op}
				setRange(eager, cE, lo, hi, v)
				setRange(lazy, cL, lo, hi, v)
				for p := lo; p < hi; p++ {
					ref.Insert(cE, p, op)
				}
			case 3:
				clearRange(eager, cE, lo, hi)
				clearRange(lazy, cL, lo, hi)
				for p := lo; p < hi; p++ {
					ref.Delete(cE, p)
				}
			default:
				rE := eager.LockPage(cE, lo)
				rL := lazy.LockPage(cL, lo)
				eE, eL := rE.Entry(0), rL.Entry(0)
				if (eE.Value() == nil) != (eL.Value() == nil) {
					t.Fatalf("trial %d op %d: page %d mapped=%v eager vs %v lazy",
						trial, op, lo, eE.Value() != nil, eL.Value() != nil)
				}
				if v := eE.Value(); v != nil {
					v.x = op
					eE.Set(v)
					vL := eL.Value()
					vL.x = op
					eL.Set(vL)
					for p := eE.Lo; p < eE.Hi; p++ {
						ref.Insert(cE, p, op)
					}
				}
				rE.Unlock()
				rL.Unlock()
			}
			rcE.Maintain(cE)
			rcL.Maintain(cL)
		}

		seed := int64(4200 + trial)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < ops; op++ {
			apply(rng, trE, trL, parentRef, op)
		}
		childE := trE.ForkFlush(cE, nil, nil)
		childL := trL.ForkLazy(cL)
		// The child starts as a snapshot of the parent.
		for p := uint64(0); p < window; p += 7 {
			if got, want := lookupVal(childL, cL, p), refGet(parentRef, cE, p); got != want {
				t.Fatalf("trial %d: lazy child snapshot diverged at page %d: %d, want %d", trial, p, got, want)
			}
		}
		// Keep mutating both sides with identical (but distinct per side)
		// op streams; the rbtree models split at the fork too.
		for p := uint64(0); p < window; p++ {
			if v, ok := parentRef.Get(cE, p); ok {
				childRef.Insert(cE, p, v)
			}
		}
		rngP := rand.New(rand.NewSource(seed + 1000))
		rngC := rand.New(rand.NewSource(seed + 2000))
		for op := ops; op < 2*ops; op++ {
			apply(rngP, trE, trL, parentRef, op)
			apply(rngC, childE, childL, childRef, -op)
		}
		quiesce(rcE)
		quiesce(rcL)
		for p := uint64(0); p < window+64; p++ {
			if got, want := lookupVal(trL, cL, p), refGet(parentRef, cE, p); got != want {
				t.Fatalf("trial %d: lazy parent diverged at page %d: %d, want %d", trial, p, got, want)
			}
			if got, want := lookupVal(trE, cE, p), refGet(parentRef, cE, p); got != want {
				t.Fatalf("trial %d: eager parent diverged at page %d: %d, want %d", trial, p, got, want)
			}
			if got, want := lookupVal(childL, cL, p), refGet(childRef, cE, p); got != want {
				t.Fatalf("trial %d: lazy child diverged at page %d: %d, want %d", trial, p, got, want)
			}
			if got, want := lookupVal(childE, cE, p), refGet(childRef, cE, p); got != want {
				t.Fatalf("trial %d: eager child diverged at page %d: %d, want %d", trial, p, got, want)
			}
		}
	}
}

// TestLazyForkDeterministic: the lazy fork's deferred billing must not cost
// determinism — two runs of the same single-core fork-and-diverge scenario
// land on identical virtual clocks (the figure-stability CI gate depends on
// this for the template-clone figure's one-core column).
func TestLazyForkDeterministic(t *testing.T) {
	run := func() uint64 {
		m, rc, tr := newCopyTree(1)
		c := m.CPU(0)
		rng := rand.New(rand.NewSource(77))
		for op := 0; op < 100; op++ {
			lo := uint64(rng.Intn(1 << 12))
			setRange(tr, c, lo, lo+uint64(rng.Intn(100)+1), &val{op})
			rc.Maintain(c)
		}
		child := tr.ForkLazy(c)
		for op := 0; op < 100; op++ {
			lo := uint64(rng.Intn(1 << 12))
			setRange(child, c, lo, lo+uint64(rng.Intn(100)+1), &val{-op})
			rc.Maintain(c)
		}
		child.Release(c)
		quiesce(rc)
		return c.Now()
	}
	first := run()
	if second := run(); second != first {
		t.Fatalf("lazy fork schedule nondeterministic: %d vs %d cycles", first, second)
	}
}

// TestEagerAndLazyForkCopySameNodes pins the node copy the two fork
// policies share. One tree is forked eagerly; an identical tree is forked
// lazily, and its child then writes every mapped page, which diverges every
// shared node. Both forks must copy the same number of nodes and hand the
// same values, over the same ranges, to their value callback (the eager
// visit, the lazy onDiverge).
func TestEagerAndLazyForkCopySameNodes(t *testing.T) {
	type pages struct{ lo, hi uint64 }
	leaves := []pages{
		{3, 23}, {700, 720}, {span(1)*5 + 17, span(1)*5 + 37},
		{span(2)*3 + 40, span(2)*3 + 60}, {span(3) + 9, span(3) + 29},
	}
	fold := pages{span(1) * 40, span(1) * 41}
	build := func() (*hw.Machine, *Tree[val]) {
		m, _, tr := newCopyTree(1)
		c := m.CPU(0)
		// Per-page leaves under several interior levels.
		for i, l := range leaves {
			setRange(tr, c, l.lo, l.hi, &val{x: i})
		}
		// A folded value expanded into a uniform leaf with one diverged page.
		r := tr.LockRange(c, fold.lo, fold.hi)
		r.Entry(0).SetClone(&val{x: 99})
		r.Unlock()
		r = tr.LockPage(c, fold.lo+9)
		r.Entry(0).Value().x = 42
		r.Unlock()
		return m, tr
	}
	record := func(into map[pages]int) func(*hw.CPU, uint64, uint64, *val, *val) {
		return func(_ *hw.CPU, lo, hi uint64, _, _ *val) { into[pages{lo, hi}]++ }
	}

	mE, trE := build()
	eagerVisits := map[pages]int{}
	childE := trE.ForkFlush(mE.CPU(0), record(eagerVisits), nil)

	mL, trL := build()
	cL := mL.CPU(0)
	lazyVisits := map[pages]int{}
	trL.OnDiverge(record(lazyVisits))
	childL := trL.ForkLazy(cL)
	for _, l := range append(leaves, fold) {
		for p := l.lo; p < l.hi; p++ {
			r := childL.LockPage(cL, p)
			r.Entry(0).Set(childL.Clone(&val{x: -1}))
			r.Unlock()
		}
	}

	if e, l := childE.NodesEver(), childL.NodesEver(); e != l || e < int64(len(leaves)) {
		t.Errorf("node copies: eager %d, lazy after full divergence %d; want equal (and >= %d)", e, l, len(leaves))
	}
	if len(eagerVisits) == 0 {
		t.Fatal("the eager fork visited no values")
	}
	for v, n := range eagerVisits {
		if lazyVisits[v] != n {
			t.Errorf("visit [%d,%d): eager %d, lazy %d", v.lo, v.hi, n, lazyVisits[v])
		}
	}
	for v, n := range lazyVisits {
		if _, ok := eagerVisits[v]; !ok {
			t.Errorf("visit [%d,%d): lazy %d, eager none", v.lo, v.hi, n)
		}
	}
}
