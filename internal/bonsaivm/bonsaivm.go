// Package bonsaivm is the Bonsai VM baseline (Clements et al., ASPLOS
// 2012 [7]): page faults are lock-free against an RCU-style persistent
// balanced tree of regions, but mmap and munmap still serialize on the
// address space lock — so it matches RadixVM on pagefault-heavy workloads
// (Figure 4, 8 MB) and collapses on mmap-heavy ones (64 KB).
//
// Like the real Bonsai system it uses a single shared page table and
// broadcast TLB shootdowns. Everything but the index, the lock and the
// fault path is the shared baseline core, internal/basevm.
package bonsaivm

import (
	"radixvm/internal/basevm"
	"radixvm/internal/bonsai"
	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/pagetable"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

// AddressSpace is a Bonsai-like address space.
type AddressSpace struct {
	*basevm.VM
	lock hw.Lock // serializes mmap/munmap/mprotect/fork, NOT pagefault
}

// New creates an empty Bonsai-like address space.
func New(m *hw.Machine, rc *refcache.Refcache, alloc *mem.Allocator) *AddressSpace {
	as := &AddressSpace{}
	as.VM = basevm.New(m, rc, alloc, regionTree{bonsai.New[basevm.Region]()}, (*syscallLock)(&as.lock), as.pageFault)
	return as
}

// Name implements vm.System.
func (as *AddressSpace) Name() string { return "bonsai" }

// Fork implements vm.System (basevm.VM.ForkInto): like mmap and munmap it
// serializes on the address-space lock (the Bonsai design only makes
// faults lock-free). Parent regions turning COW are republished as fresh
// structs, so concurrent lock-free faulters either see the pre-fork region
// (and their stale writable install is caught by their own revalidation
// against the post-fork tree) or the COW one.
func (as *AddressSpace) Fork(cpu *hw.CPU) (vm.System, error) {
	child := New(as.M, as.RC, as.Alloc)
	as.ForkInto(cpu, child.VM)
	return child, nil
}

// regionTree is the region index: a persistent tree whose every update
// publishes a new snapshot, and whose regions are never mutated once
// published, because faulters read them without a lock.
type regionTree struct{ t *bonsai.Tree[basevm.Region] }

func (x regionTree) Floor(cpu *hw.CPU, vpn uint64) *basevm.Region {
	_, r, _ := x.t.Floor(cpu, vpn)
	return r
}

func (x regionTree) Ascend(cpu *hw.CPU, from uint64, fn func(*basevm.Region) bool) {
	x.t.Snapshot().Ascend(cpu, from, func(_ uint64, r *basevm.Region) bool { return fn(r) })
}

func (x regionTree) Insert(cpu *hw.CPU, r *basevm.Region)       { x.t.Insert(cpu, r.Start, r) }
func (x regionTree) Delete(cpu *hw.CPU, start uint64)           { x.t.Delete(cpu, start) }
func (x regionTree) Replace(cpu *hw.CPU, old, r *basevm.Region) { x.t.Insert(cpu, old.Start, r) }

// syscallLock excludes syscalls through a plain address-space lock.
type syscallLock hw.Lock

func (l *syscallLock) Lock(cpu *hw.CPU)   { cpu.Acquire((*hw.Lock)(l)) }
func (l *syscallLock) Unlock(cpu *hw.CPU) { cpu.Release((*hw.Lock)(l)) }

// pageFault is lock-free for plain fills: it reads an atomic snapshot of
// the region tree, installs the translation, and re-validates against the
// current tree. If a concurrent munmap removed the region in between, the
// fault undoes its installation — a simplified version of the Bonsai
// system's RCU validation protocol. Copy-on-write breaks are not fills —
// they rewrite a live translation — so like the rights-upgrade repair path
// they serialize on the address-space lock; the Bonsai design only makes
// plain faults lock-free.
func (as *AddressSpace) pageFault(cpu *hw.CPU, vpn uint64, k vm.Kind, trapped bool) error {
	cpu.Stats().PageFaults++
	cpu.Tick(vm.FaultCost)
	as.NoteActive(cpu)

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
		return as.breakCOW(cpu, vpn, k, trapped)
	}
	perm := v.PermBits()
	frame := as.NewFrame(cpu, v, vpn)
	if frame == nil {
		return vm.ErrSegv // past EOF: the offset was truncated away
	}
	pt := as.MMU.PageTable()
	if !pt.MapIfAbsent(cpu, vpn, frame.PFN, perm) {
		// Raced with another faulter on the same page; adopt theirs,
		// upgrading the PTE's rights if the region now grants more.
		cpu.Stats().FillFaults++
		cpu.Tick(vm.FillCost)
		as.Alloc.DecRef(cpu, frame)
		if pte, ok := pt.Lookup(cpu, vpn); ok {
			if pte.Perm&perm != perm {
				// Rights upgrade wanted, but perm came from a region
				// snapshot: a lock-free rewrite could resurrect rights
				// a concurrent Mprotect revoked, or a PTE a concurrent
				// Munmap cleared and shot down — and no local undo can
				// repair a third core's TLB that walked the resurrected
				// entry in between. Upgrades only happen right after an
				// mprotect, so this rare path takes the address-space
				// lock like a syscall and rewrites against the current
				// truth; plain fills stay lock-free, which is all the
				// Bonsai design promises.
				cpu.Acquire(&as.lock)
				cur := as.Find(cpu, vpn)
				cur2, ok2 := pt.Peek(vpn)
				switch {
				case cur == nil:
					cpu.Release(&as.lock)
					return vm.ErrSegv
				case !cur.Prot.Permits(k):
					cpu.Release(&as.lock)
					if !trapped {
						cpu.Stats().ProtFaults++
					}
					return vm.ErrProt
				case !ok2:
					// The mapping was replaced wholesale between our
					// snapshot and the lock: retry as a fresh fault.
					cpu.Release(&as.lock)
					return as.pageFault(cpu, vpn, k, trapped)
				}
				perm = cur.PermBits()
				if cur2.Perm&perm != perm {
					pt.Map(cpu, vpn, cur2.PFN, perm)
					cur2.Perm = perm
				}
				cpu.Release(&as.lock)
				pte = cur2
			}
			as.install(cpu, vpn, pte)
		}
		return nil
	}
	// Re-validate: a munmap may have cleared this range — or an mprotect
	// changed its rights, or a fork COW'd it — between our snapshot read
	// and the PTE install, and our stale install would outlive the
	// syscall's shootdown. The repair path is rare (it requires losing
	// that race), so it serializes on the address-space lock and
	// broadcasts a flush for the page: any third core that walked the
	// transient PTE rechecks it (rights-aware MMU.Revalidate) or is
	// flushed outright.
	cur := as.Find(cpu, vpn)
	if cur == nil || cur.Prot != v.Prot || cur.COW != v.COW {
		cpu.Acquire(&as.lock)
		cur = as.Find(cpu, vpn)
		if cur == nil {
			// Drop whichever frame the PTE holds now, not ours: the
			// munmap that removed the region may already have cleared
			// and dropped our frame, and another faulter may since have
			// filled the PTE with its own.
			var stale *mem.Frame
			pt.UnmapRangeFunc(cpu, vpn, vpn+1, func(_, pfn uint64) {
				stale = as.Alloc.ByPFN(pfn)
			})
			as.MMU.ShootdownTLBOnly(cpu, vpn, vpn+1, as.Active())
			if stale != nil {
				as.Alloc.DecRef(cpu, stale)
			}
			cpu.Release(&as.lock)
			return vm.ErrSegv
		}
		if curPerm := cur.PermBits(); curPerm != perm {
			pt.Map(cpu, vpn, frame.PFN, curPerm)
			as.MMU.ShootdownTLBOnly(cpu, vpn, vpn+1, as.Active())
			perm = curPerm
		}
		allowed := cur.Prot.Permits(k)
		cpu.Release(&as.lock)
		if !allowed {
			if !trapped {
				cpu.Stats().ProtFaults++
			}
			// The page stays mapped and resident with its current
			// (narrower) rights; only this access is denied.
			return vm.ErrProt
		}
	}
	as.install(cpu, vpn, pagetable.PTE{PFN: frame.PFN, Perm: perm, Present: true})
	return nil
}

// install caches a filled translation in cpu's TLB and then revalidates it
// against the page table, as the access walk does. The region check above
// it is not enough on its own: a munmap or mprotect can clear or downgrade
// the PTE and flush every TLB between that check and the insert, which
// would leave a stale entry — after a munmap, to a freed frame. Such a
// syscall changes the table before it flushes, so an entry inserted after
// its flush fails the revalidation and goes again.
func (as *AddressSpace) install(cpu *hw.CPU, vpn uint64, pte pagetable.PTE) {
	t := as.MMU.TLB(cpu.ID())
	t.Insert(vpn, vm.TLBEntry(pte))
	if !as.MMU.Revalidate(cpu, vpn, pte.PFN, pte.Perm) {
		t.FlushPage(vpn)
	}
}

// breakCOW resolves a write fault in a COW region under the address-space
// lock. With the lock held no munmap, mprotect, fork, or other break can
// interleave; only lock-free read fills race, which MapIfAbsent absorbs.
// The TLB insert comes before the unlock, so no syscall's flush can pass it.
func (as *AddressSpace) breakCOW(cpu *hw.CPU, vpn uint64, k vm.Kind, trapped bool) error {
	cpu.Acquire(&as.lock)
	cur := as.Find(cpu, vpn)
	switch {
	case cur == nil:
		cpu.Release(&as.lock)
		return vm.ErrSegv
	case !cur.Prot.Permits(k):
		cpu.Release(&as.lock)
		if !trapped {
			cpu.Stats().ProtFaults++
		}
		return vm.ErrProt
	case !cur.COW:
		// The region was replaced (e.g. remapped) since our snapshot;
		// retry as a plain fault.
		cpu.Release(&as.lock)
		return as.pageFault(cpu, vpn, k, trapped)
	}
	pt := as.MMU.PageTable()
	wperm := vm.PermBits(cur.Prot)
	for {
		pte, ok := pt.Lookup(cpu, vpn)
		if !ok {
			// Never faulted in this space: no frame is shared, so fill
			// privately with full rights. A lock-free reader may race the
			// install; on failure, loop and resolve against its PTE.
			frame := as.Alloc.Alloc(cpu)
			if pt.MapIfAbsent(cpu, vpn, frame.PFN, wperm) {
				as.MMU.TLB(cpu.ID()).Insert(vpn, vm.TLBEntryFor(frame.PFN, cur.Prot))
				cpu.Release(&as.lock)
				return nil
			}
			as.Alloc.DecRef(cpu, frame)
			continue
		}
		if pte.Perm&pagetable.PermW != 0 {
			// Already privatized by an earlier break.
			as.MMU.TLB(cpu.ID()).Insert(vpn, vm.TLBEntry(pte))
			cpu.Release(&as.lock)
			return nil
		}
		orig := as.Alloc.ByPFN(pte.PFN)
		nf := vm.CopyCOWFrame(cpu, as.Alloc, orig)
		pt.Map(cpu, vpn, nf.PFN, wperm)
		as.Alloc.DecRef(cpu, orig) // the page table's ref moved to the copy
		// Stale read-only translations of the old frame may be cached
		// anywhere; the shared MMU can only broadcast.
		as.MMU.ShootdownTLBOnly(cpu, vpn, vpn+1, as.Active())
		as.MMU.TLB(cpu.ID()).Insert(vpn, vm.TLBEntryFor(nf.PFN, cur.Prot))
		cpu.Release(&as.lock)
		return nil
	}
}
