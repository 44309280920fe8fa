// Package linuxvm is the Linux-3.5-like baseline VM system the paper
// compares against: contiguous regions ("VMAs") in a red-black tree, one
// address-space read/write lock (mmap_sem) protecting it, a single shared
// hardware page table, and conservative broadcast TLB shootdowns.
//
// mmap and munmap take the lock in write mode, serializing them; pagefault
// takes it in read mode, which still writes the lock word's cache line —
// the reason "Metis on Linux scales poorly with both small and large
// allocation units" (§5.2).
//
// Everything but the index, the lock and the fault path is the shared
// baseline core, internal/basevm.
package linuxvm

import (
	"radixvm/internal/basevm"
	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/pagetable"
	"radixvm/internal/rbtree"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

// VMABytes approximates sizeof(struct vm_area_struct) for Table 2's
// "VMA tree" column (Linux 3.5: ~200 bytes including rb-tree linkage).
const VMABytes = 200

// AddressSpace is a Linux-like address space.
type AddressSpace struct {
	*basevm.VM
	lock hw.RWLock // mmap_sem
	vmas *rbtree.Tree[*basevm.Region]
}

// New creates an empty Linux-like address space.
func New(m *hw.Machine, rc *refcache.Refcache, alloc *mem.Allocator) *AddressSpace {
	as := &AddressSpace{vmas: rbtree.New[*basevm.Region]()}
	as.VM = basevm.New(m, rc, alloc, vmaTree{as.vmas}, (*mmapSem)(&as.lock), as.pageFault)
	return as
}

// Name implements vm.System.
func (as *AddressSpace) Name() string { return "linux" }

// VMACount returns the number of regions (Table 2 accounting).
func (as *AddressSpace) VMACount() int { return as.vmas.Len() }

// VMABytesTotal returns the VMA tree's memory footprint.
func (as *AddressSpace) VMABytesTotal() uint64 { return uint64(as.vmas.Len()) * VMABytes }

// Fork implements vm.System (basevm.VM.ForkInto): the whole address space
// is write-locked, serializing against every fault, map, and unmap.
func (as *AddressSpace) Fork(cpu *hw.CPU) (vm.System, error) {
	child := New(as.M, as.RC, as.Alloc)
	as.ForkInto(cpu, child.VM)
	return child, nil
}

// vmaTree is the VMA index: a red-black tree whose regions are updated in
// place, since every fault holds mmap_sem for reading.
type vmaTree struct{ t *rbtree.Tree[*basevm.Region] }

func (x vmaTree) Floor(cpu *hw.CPU, vpn uint64) *basevm.Region {
	if n := x.t.Floor(cpu, vpn); n != nil {
		return n.Val
	}
	return nil
}

func (x vmaTree) Ascend(cpu *hw.CPU, from uint64, fn func(*basevm.Region) bool) {
	x.t.Ascend(cpu, from, func(n *rbtree.Node[*basevm.Region]) bool { return fn(n.Val) })
}

func (x vmaTree) Insert(cpu *hw.CPU, r *basevm.Region)     { x.t.Insert(cpu, r.Start, r) }
func (x vmaTree) Delete(cpu *hw.CPU, start uint64)         { x.t.Delete(cpu, start) }
func (x vmaTree) Replace(_ *hw.CPU, old, r *basevm.Region) { *old = *r }

// mmapSem excludes syscalls through the write side of mmap_sem.
type mmapSem hw.RWLock

func (l *mmapSem) Lock(cpu *hw.CPU)   { cpu.WLock((*hw.RWLock)(l)) }
func (l *mmapSem) Unlock(cpu *hw.CPU) { cpu.WUnlock((*hw.RWLock)(l)) }

// pageFault takes the address space lock in read mode — cheap in real-time
// terms, but the reader-count update transfers the lock's cache line, so
// concurrent faults across cores serialize at that line (§5.2). The VMA's
// protection gates the access; a present PTE with narrower rights than the
// VMA (an mprotect upgrade not yet realized) is rewritten in place, and a
// write into a COW region resolves the copy-on-write first.
func (as *AddressSpace) pageFault(cpu *hw.CPU, vpn uint64, k vm.Kind, trapped bool) error {
	cpu.Stats().PageFaults++
	cpu.Tick(vm.FaultCost)
	as.NoteActive(cpu)
	cpu.RLock(&as.lock)
	defer cpu.RUnlock(&as.lock)

	v := as.Find(cpu, vpn)
	if v == nil {
		return vm.ErrSegv
	}
	if !v.Prot.Permits(k) {
		if !trapped {
			cpu.Stats().ProtFaults++
		}
		return vm.ErrProt
	}
	if v.COW && k == vm.KindWrite {
		if as.breakCOWLocked(cpu, vpn, v) {
			return nil
		}
		// No translation yet: the page was never faulted in this space, so
		// no frame is shared — fall through to a plain private fill, which
		// may carry full rights.
	}
	perm := v.PermBits()
	if k == vm.KindWrite {
		perm |= pagetable.PermW // a resolved COW (or non-COW) write install
	}
	frame := as.NewFrame(cpu, v, vpn)
	if frame == nil {
		return vm.ErrSegv // past EOF: the offset was truncated away
	}
	pt := as.MMU.PageTable()
	if pt.MapIfAbsent(cpu, vpn, frame.PFN, perm) {
		as.MMU.TLB(cpu.ID()).Insert(vpn, vm.TLBEntry(pagetable.PTE{PFN: frame.PFN, Perm: perm, Present: true}))
		return nil
	}
	// Another core mapped the page first: drop ours, adopt theirs,
	// upgrading the PTE's rights if the VMA now grants more. COW regions
	// never upgrade to writable here — that is the break path's job.
	cpu.Stats().FillFaults++
	cpu.Tick(vm.FillCost)
	as.Alloc.DecRef(cpu, frame)
	if v.COW && k == vm.KindWrite {
		// We lost the install race, so the page now has a (shared,
		// read-only) translation after all: resolve the COW against it.
		if as.breakCOWLocked(cpu, vpn, v) {
			return nil
		}
	}
	perm = v.PermBits()
	if pte, ok := pt.Lookup(cpu, vpn); ok {
		if pte.Perm&perm != perm {
			pt.Map(cpu, vpn, pte.PFN, perm)
			pte.Perm = perm
		}
		as.MMU.TLB(cpu.ID()).Insert(vpn, vm.TLBEntry(pte))
	}
	return nil
}

// breakCOWLocked resolves a write fault in a COW region when the page has
// an installed (necessarily read-only) translation: copy the frame, swap
// the PTE to the private writable copy, and broadcast a flush — the shared
// page table records no sharer set, so like every Linux shootdown it must
// interrupt every core using the address space. Reports whether a
// translation existed (false means the caller should fill privately).
// Caller holds the address-space lock in at least read mode; concurrent
// breakers of one page race on the PTE swap, and the loser adopts the
// winner's copy.
func (as *AddressSpace) breakCOWLocked(cpu *hw.CPU, vpn uint64, v *basevm.Region) bool {
	pt := as.MMU.PageTable()
	pte, ok := pt.Lookup(cpu, vpn)
	if !ok {
		return false
	}
	if pte.Perm&pagetable.PermW != 0 {
		// Another core already privatized this page; just adopt.
		as.MMU.TLB(cpu.ID()).Insert(vpn, vm.TLBEntry(pte))
		return true
	}
	orig := as.Alloc.ByPFN(pte.PFN)
	nf := vm.CopyCOWFrame(cpu, as.Alloc, orig)
	if !pt.Replace(cpu, vpn, pte, nf.PFN, vm.PermBits(v.Prot)) {
		// Lost the race to a concurrent breaker: discard our copy and
		// adopt whatever is installed now (the winner's ref on orig was
		// moved by the winner; ours never moved).
		as.Alloc.DecRef(cpu, nf)
		if cur, ok2 := pt.Lookup(cpu, vpn); ok2 {
			as.MMU.TLB(cpu.ID()).Insert(vpn, vm.TLBEntry(cur))
		}
		return true
	}
	// The page table's reference moved from the shared frame to the copy.
	as.Alloc.DecRef(cpu, orig)
	// Stale read-only translations of the old frame may be cached
	// anywhere; Linux can only broadcast.
	as.MMU.ShootdownTLBOnly(cpu, vpn, vpn+1, as.Active())
	as.MMU.TLB(cpu.ID()).Insert(vpn, vm.TLBEntryFor(nf.PFN, v.Prot))
	return true
}
