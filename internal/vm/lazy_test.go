package vm_test

import (
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/vm"
)

// lazySpace builds a radixvm address space in lazy-fork mode.
func lazySpace(w *world) *vm.AddressSpace {
	as := vm.New(w.m, w.rc, w.alloc, nil)
	as.SetForkEager(false)
	return as
}

// exit tears a space down through the Exiter fast path, which every
// radixvm address space implements.
func exit(c *hw.CPU, sys vm.System) {
	sys.(vm.Exiter).Exit(c)
}

// TestLazyForkIsO1VirtualTime: the tentpole property at the VM level — on
// a large warmed parent, the lazy Fork call returns an order of magnitude
// cheaper in virtual time than the eager sweep, because the per-node copy
// and COW-arming work moved to first divergence.
func TestLazyForkIsO1VirtualTime(t *testing.T) {
	const lo, npages = uint64(0), uint64(1 << 13) // 8k faulted pages, 16 leaf nodes
	warm := func(as *vm.AddressSpace, c *hw.CPU, tt *testing.T) {
		mustT(tt, as.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
		for v := lo; v < lo+npages; v++ {
			mustT(tt, as.Access(c, v, true))
		}
	}
	wE := newWorld(1)
	eagerAS := vm.New(wE.m, wE.rc, wE.alloc, nil)
	cE := m0(wE)
	warm(eagerAS, cE, t)
	before := cE.Now()
	_, err := eagerAS.Fork(cE)
	must(t, err)
	eager := cE.Now() - before

	wL := newWorld(1)
	lazyAS := lazySpace(wL)
	cL := m0(wL)
	warm(lazyAS, cL, t)
	before = cL.Now()
	_, err = lazyAS.Fork(cL)
	must(t, err)
	lazy := cL.Now() - before

	if lazy*10 > eager {
		t.Fatalf("lazy fork cost %d cycles on a %d-page parent, eager %d: want >= 10x cheaper", lazy, npages, eager)
	}
}

// TestLazyForkSharedMMUFallback: requesting lazy mode on a shared-table
// space silently falls back to the eager sweep (the stale-writable-PTE
// window documented in Fork) but must stay correct: isolation, COW copies,
// and teardown all behave.
func TestLazyForkSharedMMUFallback(t *testing.T) {
	w := newWorld(2)
	as := vm.New(w.m, w.rc, w.alloc, vm.NewSharedMMU(w.m))
	as.SetForkEager(false)
	c := m0(w)
	must(t, as.Mmap(c, 100, 2, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	must(t, as.Access(c, 100, true))
	childSys, err := as.Fork(c)
	must(t, err)
	base := w.alloc.Created()
	must(t, childSys.Access(c, 100, true))
	if got := w.alloc.Created() - base; got != 1 {
		t.Fatalf("child COW write created %d frames, want 1", got)
	}
	child := childSys.(*vm.AddressSpace)
	cm, pm := child.Lookup(c, 100), as.Lookup(c, 100)
	if cm.Frame == pm.Frame {
		t.Fatal("shared-MMU fallback: child write did not privatize the frame")
	}
	exit(c, childSys)
	exit(c, as)
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked", live)
	}
}

// TestExitEagerSpace: Exit is not lazy-mode-only — an eager, even
// never-forked space tears down through the same release hooks with zero
// frame leaks.
func TestExitEagerSpace(t *testing.T) {
	w := newWorld(1)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	c := m0(w)
	must(t, as.Mmap(c, 100, 8, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	for v := uint64(100); v < 108; v++ {
		must(t, as.Access(c, v, true))
	}
	// An eager fork family: parent exits, child survives with its COW
	// shares intact, then exits too.
	childSys, err := as.Fork(c)
	must(t, err)
	exit(c, as)
	for v := uint64(100); v < 108; v++ {
		must(t, childSys.Access(c, v, true))
	}
	exit(c, childSys)
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked after Exits", live)
	}
}
