// Package basevm is the shared core of the two baseline VM systems the
// paper compares RadixVM against (§5, Figure 4): Linux (internal/linuxvm)
// and Bonsai (internal/bonsaivm). Both keep contiguous regions in one
// index, use a single shared hardware page table with conservative
// broadcast TLB shootdowns, and serialize every operation except page
// faults on one address-space lock. They differ in exactly three design
// choices, which each package supplies:
//
//   - the region index (Index): Linux's red-black VMA tree, updated in
//     place under mmap_sem, or Bonsai's persistent tree, whose snapshots
//     page faults read without any lock;
//   - the syscall exclusion (Excl): the write side of mmap_sem, or a plain
//     lock;
//   - the fault path, which Access and PageFault call: Linux's read-locked
//     fill, or Bonsai's lock-free fill-and-revalidate.
//
// Everything else lives here once: the region type, mmap, munmap,
// mprotect, fork, file revocation, the access pipeline and the
// file-mapper registry.
//
// The core's one safety rule for lock-free readers: a region update never
// uncovers a page that stays mapped across it. Splits publish the higher
// pieces first (the old region still covers them from below), then swap
// the lowest key in one Replace, and delete interior keys last.
package basevm

import (
	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/pagetable"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

// Region is one contiguous mapped range [Start, End), Linux's VMA.
type Region struct {
	Start, End uint64
	Prot       vm.Prot
	Back       vm.Backing // Back.Offset is the file page at Start
	// COW marks an anonymous region whose already-faulted frames are (or
	// were) shared with a forked address space: translations install
	// read-only and the first write to each page copies its frame. The
	// flag is region-granular — Linux's VMA carries exactly this — so it
	// persists after every page has been privatized; a stale flag only
	// costs a touched page one extra copy, never correctness.
	COW bool
}

// PermBits returns the rights a translation in r may carry: the region's
// protection, minus write while the region is copy-on-write (per-page
// write-back happens only through a resolved COW break).
func (r *Region) PermBits() pagetable.Perm {
	perm := vm.PermBits(r.Prot)
	if r.COW {
		perm &^= pagetable.PermW
	}
	return perm
}

// piece returns the part [start, end) of r with protection prot, its file
// offset shifted to start.
func (r *Region) piece(start, end uint64, prot vm.Prot) *Region {
	p := &Region{Start: start, End: end, Prot: prot, Back: r.Back, COW: r.COW}
	if p.Back.File != nil {
		p.Back.Offset += start - r.Start
	}
	return p
}

// Index is a baseline's region index, keyed by Region.Start. Every update
// runs under the address space's Excl.
type Index interface {
	// Floor returns the region with the greatest Start <= vpn, or nil.
	Floor(cpu *hw.CPU, vpn uint64) *Region
	// Ascend visits regions in Start order from the first Start >= from
	// until fn returns false; fn may Replace the region it is given.
	Ascend(cpu *hw.CPU, from uint64, fn func(*Region) bool)
	Insert(cpu *hw.CPU, r *Region)
	Delete(cpu *hw.CPU, start uint64)
	// Replace swaps old, a region the index holds, for r (same Start) in
	// one step. Linux overwrites old in place: its faulters hold mmap_sem
	// for reading, so none can observe the write. Bonsai publishes r as a
	// fresh struct, because lock-free faulters may still be reading old.
	Replace(cpu *hw.CPU, old, r *Region)
}

// Excl is the lock that serializes a baseline's non-fault operations.
type Excl interface {
	Lock(cpu *hw.CPU)
	Unlock(cpu *hw.CPU)
}

// FaultFunc is a baseline's page-fault handler. trapped means a TLB or
// page-walk permission trap raised the fault and already counted the
// ProtFault.
type FaultFunc func(cpu *hw.CPU, vpn uint64, k vm.Kind, trapped bool) error

// VM is the shared part of a baseline address space. The baseline
// packages embed it and supply Name, Fork and their fault path.
type VM struct {
	M     *hw.Machine
	RC    *refcache.Refcache
	Alloc *mem.Allocator
	MMU   *vm.SharedMMU

	regions Index
	excl    Excl
	fault   FaultFunc

	// files counts live regions per backing file, mirroring the kernel's
	// i_mmap membership: the space is registered with a file while at
	// least one region maps it, so writebacks find exactly the current
	// mappers. Guarded by excl.
	files map[*vm.File]int

	active vm.ActiveSet
}

// New creates an empty address space over regions, serialized by excl,
// whose faults go to fault.
func New(m *hw.Machine, rc *refcache.Refcache, alloc *mem.Allocator, regions Index, excl Excl, fault FaultFunc) *VM {
	return &VM{M: m, RC: rc, Alloc: alloc, MMU: vm.NewSharedMMU(m), regions: regions, excl: excl, fault: fault}
}

// PageTableBytes implements vm.System.
func (v *VM) PageTableBytes() uint64 { return v.MMU.Bytes() }

// NoteActive records that cpu uses the address space.
func (v *VM) NoteActive(cpu *hw.CPU) { v.active.Note(cpu.ID()) }

// Active returns every core that has used the address space: the
// broadcast set, since the shared table records no per-page sharers.
func (v *VM) Active() hw.CoreSet { return v.active.Get() }

// Find returns the region containing vpn, or nil.
func (v *VM) Find(cpu *hw.CPU, vpn uint64) *Region {
	r := v.regions.Floor(cpu, vpn)
	if r == nil || vpn >= r.End {
		return nil
	}
	return r
}

// NewFrame returns a referenced frame to fill vpn of r with: the file's
// cached page, or a fresh anonymous frame. It returns nil past a file's
// EOF (the offset was truncated away), which faults as ErrSegv.
func (v *VM) NewFrame(cpu *hw.CPU, r *Region, vpn uint64) *mem.Frame {
	if f := r.Back.File; f != nil {
		fr, _ := f.Page(cpu, r.Back.Offset+(vpn-r.Start))
		return fr
	}
	return v.Alloc.Alloc(cpu)
}

// track adjusts the region count for f (nil for anonymous memory) by d,
// registering with f on its first region and leaving on its last.
func (v *VM) track(f *vm.File, d int) {
	if f == nil {
		return
	}
	if v.files == nil {
		v.files = make(map[*vm.File]int)
	}
	v.files[f] += d
	switch n := v.files[f]; {
	case n == 0:
		delete(v.files, f)
		f.UnregisterMapper(v)
	case n == 1 && d > 0:
		f.RegisterMapper(v)
	}
}

func (v *VM) insert(cpu *hw.CPU, r *Region) {
	v.regions.Insert(cpu, r)
	v.track(r.Back.File, 1)
}

func (v *VM) remove(cpu *hw.CPU, r *Region) {
	v.regions.Delete(cpu, r.Start)
	v.track(r.Back.File, -1)
}

func (v *VM) replace(cpu *hw.CPU, old, r *Region) {
	f := old.Back.File // Linux's Replace overwrites old
	v.track(r.Back.File, 1)
	v.regions.Replace(cpu, old, r)
	v.track(f, -1)
}

// enter is every baseline syscall's entry: count it, pay the entry cost,
// note the core as a user of the space, and take the syscall lock.
func (v *VM) enter(cpu *hw.CPU, count *uint64) {
	*count++
	cpu.Tick(vm.LinuxSyscallCost)
	v.NoteActive(cpu)
	v.excl.Lock(cpu)
}

// Mmap implements vm.System: whatever overlaps the range is unmapped and
// replaced by the new region.
func (v *VM) Mmap(cpu *hw.CPU, vpn, npages uint64, opts vm.MapOpts) error {
	return v.remap(cpu, vpn, npages, &cpu.Stats().Mmaps, &Region{
		Start: vpn,
		End:   vpn + npages,
		Prot:  opts.Prot,
		Back:  vm.Backing{File: opts.File, Offset: opts.Offset},
	})
}

// Munmap implements vm.System.
func (v *VM) Munmap(cpu *hw.CPU, vpn, npages uint64) error {
	return v.remap(cpu, vpn, npages, &cpu.Stats().Munmaps, nil)
}

// overlapsLocked gathers every region intersecting [lo, hi), in ascending
// Start order. Caller holds excl.
func (v *VM) overlapsLocked(cpu *hw.CPU, lo, hi uint64) []*Region {
	var overlaps []*Region
	if r := v.regions.Floor(cpu, lo); r != nil && r.Start < lo && r.End > lo {
		overlaps = append(overlaps, r)
	}
	v.regions.Ascend(cpu, lo, func(r *Region) bool {
		if r.Start >= hi {
			return false
		}
		overlaps = append(overlaps, r)
		return true
	})
	return overlaps
}

// remap removes [vpn, vpn+npages) from the index, publishing n (if
// non-nil) in its place without ever uncovering a page outside the range
// or one that n maps: the right remainder and n go in first, then the
// lowest overlapping key is replaced, then interior keys are deleted. It
// then clears the shared page table over the range while collecting the
// frames that backed it, broadcasts TLB shootdowns to every core using the
// space (the hardware gives no better information), and releases the
// frames.
func (v *VM) remap(cpu *hw.CPU, vpn, npages uint64, count *uint64, n *Region) error {
	if npages == 0 {
		return vm.ErrRange
	}
	v.enter(cpu, count)
	defer v.excl.Unlock(cpu)
	lo, hi := vpn, vpn+npages
	overlaps := v.overlapsLocked(cpu, lo, hi)
	if len(overlaps) == 0 {
		if n != nil {
			v.insert(cpu, n)
		}
		return nil
	}
	first, last := *overlaps[0], *overlaps[len(overlaps)-1]
	if last.End > hi {
		v.insert(cpu, last.piece(hi, last.End, last.Prot))
	}
	interior := overlaps
	switch {
	case first.Start < lo:
		if n != nil {
			v.insert(cpu, n)
		}
		v.replace(cpu, overlaps[0], first.piece(first.Start, lo, first.Prot))
		interior = overlaps[1:]
	case n != nil && first.Start == lo:
		v.replace(cpu, overlaps[0], n)
		interior = overlaps[1:]
	case n != nil:
		v.insert(cpu, n)
	}
	for _, o := range interior {
		v.remove(cpu, o)
	}
	var frames []*mem.Frame
	v.MMU.PageTable().UnmapRangeFunc(cpu, lo, hi, func(_, pfn uint64) {
		if f := v.Alloc.ByPFN(pfn); f != nil {
			frames = append(frames, f)
		}
	})
	v.MMU.ShootdownTLBOnly(cpu, lo, hi, v.Active())
	for _, f := range frames {
		v.Alloc.DecRef(cpu, f)
	}
	return nil
}

// Mprotect implements vm.System: under the syscall lock (both designs
// serialize it against every other mmap/munmap/mprotect), split boundary
// regions so the range is covered by regions carrying exactly the new
// protection, and — because the hardware cannot say which TLBs cached the
// old rights — rewrite the shared page table's permission bits and
// broadcast a flush to every core using the space whenever rights were
// revoked. Granted rights propagate lazily through protection faults.
func (v *VM) Mprotect(cpu *hw.CPU, vpn, npages uint64, prot vm.Prot) error {
	if npages == 0 {
		return vm.ErrRange
	}
	v.enter(cpu, &cpu.Stats().Mprotects)
	defer v.excl.Unlock(cpu)
	lo, hi := vpn, vpn+npages

	overlaps := v.overlapsLocked(cpu, lo, hi)
	covered := lo
	revoked, cow := false, false
	hole := len(overlaps) == 0 || overlaps[0].Start > lo
	for _, op := range overlaps {
		o := *op
		clipLo, clipHi := max(lo, o.Start), min(hi, o.End)
		if clipLo > covered {
			hole = true
		}
		covered = clipHi
		revoked = revoked || o.Prot&^prot != 0
		cow = cow || o.COW
		// Never uncover a page: higher-key pieces first, while o's
		// full-width entry still covers them, then o's own key.
		if o.End > hi {
			v.insert(cpu, o.piece(hi, o.End, o.Prot))
		}
		if o.Start < lo {
			v.insert(cpu, o.piece(clipLo, clipHi, prot))
			v.replace(cpu, op, o.piece(o.Start, lo, o.Prot))
		} else {
			v.replace(cpu, op, o.piece(clipLo, clipHi, prot))
		}
	}
	if revoked {
		perm := vm.PermBits(prot)
		if cow {
			// Never hand write rights back to a COW region through the
			// bulk PTE rewrite; stripping W from the whole range is safe
			// (non-COW writes re-trap and lazily re-fill).
			perm &^= pagetable.PermW
		}
		v.MMU.Protect(cpu, lo, hi, perm, hw.CoreSet{}, v.Active())
	}
	if hole || covered < hi {
		return vm.ErrSegv
	}
	return nil
}

// ForkInto is vm.System's Fork the Linux way (dup_mmap), onto child, an
// empty address space of the same kind: under the parent's syscall lock —
// serializing against every map, unmap and (on Linux) fault — copy every
// region, marking anonymous ones COW on both sides, and copy the parent's
// anonymous translations into the child's page table with write stripped
// on both sides. The hardware gives no record of which TLBs cache the old
// writable rights, so the write-protect shootdown is a broadcast to every
// core using the parent — the non-scalable flush RadixVM's per-page sharer
// sets avoid. File-backed regions copy metadata only; the child re-faults
// their pages from the page cache lazily.
func (v *VM) ForkInto(cpu *hw.CPU, child *VM) {
	v.enter(cpu, &cpu.Stats().Forks)
	defer v.excl.Unlock(cpu)

	var anon []vm.Span
	var files []*vm.File
	pageZero := v.M.Config().PageZero
	child.files = make(map[*vm.File]int, len(v.files))
	v.regions.Ascend(cpu, 0, func(o *Region) bool {
		// Each duplicated region struct is billed by its logical size, the
		// same rule that prices RadixVM's header-sized node clones.
		cpu.Tick(vm.MetaCopyCost(pageZero, vm.VMACopyBytes))
		r := *o
		if f := r.Back.File; f != nil {
			if child.files[f]++; child.files[f] == 1 {
				files = append(files, f)
			}
		} else {
			anon = append(anon, vm.Span{Lo: r.Start, Hi: r.End})
			if !r.COW {
				r.COW = true
				p := r
				v.regions.Replace(cpu, o, &p)
			}
		}
		child.regions.Insert(cpu, &r)
		return true
	})
	// The child maps the same cache pages, so it joins each file's mapper
	// registry, in region order, once it is fully built: no writeback can
	// reach it half-copied, and it holds no file translations yet.
	for _, f := range files {
		f.RegisterMapper(child)
	}
	if revoked, lo, hi := vm.ForkCopyTranslations(cpu, v.Alloc, v.MMU.PageTable(), child.MMU.PageTable(), anon); revoked {
		// One conservative broadcast covers every downgraded page.
		v.MMU.ShootdownTLBOnly(cpu, lo, hi, v.Active())
	}
}

// RevokeFilePages implements vm.FileMapper the Linux way
// (unmap_mapping_range): under the syscall lock, clear the shared page
// table over every region of f overlapping [offLo, offHi), and flush with
// one broadcast to every core using the space — the hardware records no
// per-page sharer set, so one core's cached translation costs an IPI to
// all of them. The reported sharer width is that broadcast's span, which
// is what the filemap figure contrasts with RadixVM's exact per-page
// counts. On Bonsai, lock-free faults may race the clear; a refill that
// slips in behind it is ordered before the writeback, exactly the window
// the real Bonsai RCU protocol permits.
func (v *VM) RevokeFilePages(cpu *hw.CPU, f *vm.File, offLo, offHi uint64) (int, int) {
	v.excl.Lock(cpu)
	defer v.excl.Unlock(cpu)
	if v.files[f] == 0 {
		return 0, 0 // raced the last munmap: nothing maps f anymore
	}
	var spans []vm.Span
	v.regions.Ascend(cpu, 0, func(o *Region) bool {
		if o.Back.File != f {
			return true
		}
		oLo, oHi := o.Back.Offset, o.Back.Offset+(o.End-o.Start)
		cLo, cHi := max(oLo, offLo), min(oHi, offHi)
		if cLo < cHi {
			spans = append(spans, vm.Span{Lo: o.Start + (cLo - oLo), Hi: o.Start + (cHi - oLo)})
		}
		return true
	})
	if len(spans) == 0 {
		return 0, 0
	}
	revoked := 0
	lo, hi := spans[0].Lo, spans[0].Hi
	var frames []*mem.Frame
	for _, s := range spans {
		lo, hi = min(lo, s.Lo), max(hi, s.Hi)
		v.MMU.PageTable().UnmapRangeFunc(cpu, s.Lo, s.Hi, func(_, pfn uint64) {
			revoked++
			if fr := v.Alloc.ByPFN(pfn); fr != nil {
				frames = append(frames, fr)
			}
		})
	}
	// One conservative flush per mm, present PTEs or not — the region walk
	// cannot prove absence of cached translations.
	active := v.Active()
	v.MMU.ShootdownTLBOnly(cpu, lo, hi, active)
	for _, fr := range frames {
		v.Alloc.DecRef(cpu, fr)
	}
	return revoked, active.Count()
}

// PageFault handles a fault at vpn through the baseline's fault path.
func (v *VM) PageFault(cpu *hw.CPU, vpn uint64, write bool) error {
	return v.fault(cpu, vpn, vm.KindOf(write), false)
}

// Access implements vm.System.
func (v *VM) Access(cpu *hw.CPU, vpn uint64, write bool) error {
	return v.access(cpu, vpn, vm.KindOf(write))
}

// Fetch implements vm.System: an exec-checked access, sharing the same
// TLB/walk/fault pipeline as Access.
func (v *VM) Fetch(cpu *hw.CPU, vpn uint64) error {
	return v.access(cpu, vpn, vm.KindExec)
}

func (v *VM) access(cpu *hw.CPU, vpn uint64, k vm.Kind) error {
	v.NoteActive(cpu)
	t := v.MMU.TLB(cpu.ID())
	if e, ok := t.Lookup(vpn); ok {
		if vm.TLBAllows(e, k) {
			cpu.Tick(vm.AccessCost)
			return nil
		}
		cpu.Stats().ProtFaults++
		return v.fault(cpu, vpn, k, true) // permission trap from the TLB
	}
	if pte, ok := v.MMU.Lookup(cpu, vpn); ok {
		if !vm.PTEAllows(pte, k) {
			cpu.Stats().ProtFaults++
			return v.fault(cpu, vpn, k, true) // permission trap from the walk
		}
		cpu.Tick(vm.WalkCost)
		t.Insert(vpn, vm.TLBEntry(pte))
		// Walk+insert is not atomic against a concurrent shootdown;
		// re-validate (see vm.MMU.Revalidate).
		if v.MMU.Revalidate(cpu, vpn, pte.PFN, pte.Perm) {
			return nil
		}
		t.FlushPage(vpn)
	}
	return v.fault(cpu, vpn, k, false)
}
