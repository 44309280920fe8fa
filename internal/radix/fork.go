package radix

import (
	"runtime"

	"radixvm/internal/hw"
)

// Tree.ForkFlush (the eager sweep) structurally clones a tree — the radix
// half of an address-space fork. It sweeps every slot lock bit in the tree
// strictly left-to-right in the same global order every Range operation
// uses (ascending VPN, parent slot before the child node covering the same
// VPNs), but unlike a Range it does not hold the whole sweep at once: each
// *node* is copied under all of its bits and released (one merged busy
// period) before the fork descends into that node's children —
// hand-over-hand at node granularity. Every node copy, eager or lazy, is
// one routine, copyNode.
//
// What that buys and what it costs:
//
//   - Concurrent forks of one parent pipeline instead of fully serializing:
//     fork B enters a subtree as soon as fork A has released it, so a spawn
//     server's N simultaneous forks cost ~one tree sweep plus N pipeline
//     stages, not N full sweeps back to back. This is the contention path
//     the spawn workload measures.
//   - Snapshot atomicity is *node-granular*: a concurrent Range operation
//     whose slots all live in one node is observed entirely or not at all
//     (it mutates only while holding its whole range, and the fork holds
//     every bit of a node across that node's copy), and single-page
//     operations — faults, COW breaks — are always atomic. A Range
//     operation *spanning nodes* can land in the released/not-yet-copied
//     gap between two node copies and be reflected partially, split at a
//     node boundary. Operations on disjoint regions commute with fork
//     either way — the §3.4 property the workloads rely on.
//   - ForkLazy (lazy.go) strengthens this to whole-tree snapshot
//     atomicity: the snapshot is taken entirely under the root's bits, and
//     a shared node diverges only after acquiring all of its bits —
//     serializing with any in-flight multi-node Range op, which therefore
//     lands entirely before or entirely after the snapshot. Callers
//     needing Linux-style whole-space fork atomicity use ForkLazy (the
//     regression test TestLazyForkRangeAtomicity pins this down); the
//     eager sweep keeps the node-granular relaxation in exchange for
//     billing all copy cost up front at fork time.
//
// The child preserves the parent's uniform/diverged representation without
// materializing anything on either side: a parent node's unmaterialized
// slots are covered by acquiring their packed bit words directly (their
// virtual-time wait comes from the node's uniform gate table, consulted
// once per node), and the child mirrors exactly the slot groups the parent
// has materialized — uniform parent nodes yield uniform children, so
// forking a large, mostly-folded address space copies compact headers, not
// 8 KB pages of slots.

// Fork cost model: a cloned node is billed by the *logical* size of what
// fork actually copies, at the page-copy rate (PageZero cycles per 4 KB).
// A uniform node is one compact header — the fill value, the packed lock
// bits, the plateau table, and the group directory — so cloning it costs a
// header-sized virtual copy, not a full simulated 8 KB page; each
// materialized group adds its cache line of four 16-byte slots. A fully
// diverged node therefore pays the full page-copy rate for its 8 KB of
// slots while a vast folded mapping forks in header-sized steps — the
// virtual-time mirror of the real-memory win the structural clone already
// delivers. The same by-logical-size rule prices the baselines' fork
// (vm.MetaCopyCost: VMA structs and PTEs), keeping the comparison fair.
const (
	// ForkHeaderBytes is the logical size of a uniform node header billed
	// per cloned node (~1.2 KB: fill slot, 8 lock-bit words, plateau
	// table, 128-entry group directory).
	ForkHeaderBytes = 1216
	// ForkGroupBytes is the logical size billed per materialized group
	// mirrored into the child: its cache line of four 16-byte slots.
	ForkGroupBytes = 64
	// forkPageBytes is the page-copy rate's denominator: PageZero is the
	// cost of touching one 4 KB page.
	forkPageBytes = 4096
)

// ForkNodeCost returns the virtual cycles fork charges for cloning one
// node with the given number of materialized groups, given the machine's
// PageZero cost (exported so tests can assert the billing exactly).
func ForkNodeCost(pageZero uint64, groups int) uint64 {
	return pageZero * (ForkHeaderBytes + uint64(groups)*ForkGroupBytes) / forkPageBytes
}

// forkKid records a pinned source child whose subtree copy is deferred
// until the current node's bits are released (the hand-over-hand step),
// plus the dst slot the finished copy's link goes into.
type forkKid[V any] struct {
	child *node[V]
	dg    *slotGroup[V]
	j     int
	idx   int
}

// ForkFlush clones t's mapped structure into a fresh tree of the same kind
// on the same machine and Refcache domain — the eager sweep. visit is
// invoked once per distinct stored value with the VPN range it covers:
// leaf slots get one page, folded interior slots their whole span, and a
// uniform node's shared fill is visited once for the node's entire range
// (its logical per-slot copies are identical by construction, so one visit
// covers them all). src is the parent's value — mutable in place, since
// fork holds the covering slot's lock bit while visiting — and dst the
// child's fresh copy. On cloneShared trees src and dst are the same
// pointer (values are shared by construction).
//
// flush, if non-nil, runs after each source node has been fully copied —
// every visit for its slots done — and *before* its lock bits are
// released. The VM layer uses it to issue the write-protect shootdowns for
// the pages just flagged COW while the slots are still locked, so no
// parent write can slip through a stale writable translation between the
// snapshot of a page and the revocation of its write rights.
func (t *Tree[V]) ForkFlush(cpu *hw.CPU, visit func(cpu *hw.CPU, lo, hi uint64, src, dst *V), flush func(cpu *hw.CPU)) *Tree[V] {
	nt := treeShell(t.m, t.rc, t.clone, t.kind)
	nt.root = nt.forkSweep(cpu, t.root, 1, visit, flush) // +1: the root's immortal ref
	return nt
}

// forkSweep copies src into tree t (copyNode, keeping child links for
// later), flushes, then releases all of src's bits and only afterwards
// descends into the child nodes it pinned along the way — hand-over-hand,
// so a trailing fork (or any locker) enters this node the moment its copy
// is done rather than when the whole fork finishes. At most one node's
// bits are held at a time, so the sweep is deadlock-free. Within one node
// the copy is a two-phase atomic snapshot; across nodes the snapshot is
// only node-granular (see the package comment above).
func (t *Tree[V]) forkSweep(cpu *hw.CPU, src *node[V], extra int64, visit func(cpu *hw.CPU, lo, hi uint64, src, dst *V), flush func(cpu *hw.CPU)) *node[V] {
	var kidsBuf [8]forkKid[V]
	dst, arrive, kids := t.copyNode(cpu, src, extra, visit, false, kidsBuf[:0])
	if flush != nil {
		flush(cpu)
	}
	src.forkUnlock(cpu, arrive)
	for i := range kids {
		k := &kids[i]
		dchild := t.forkSweep(cpu, k.child, 0, visit, flush)
		dchild.parent = dst
		dchild.parentIdx = k.idx
		k.dg.slab[k.j] = slotState[V]{child: dchild.obj}
		storePlain(&k.dg.sts[k.j], &k.dg.slab[k.j])
		t.unpin(cpu, k.child)
	}
	return dst
}

// copyNode is the one per-node fork copy, shared by both fork policies:
// the eager sweep runs it on every node at fork time, the generation fork
// on the root at fork time (ForkLazy) and on each shared node at its first
// divergence (divergeChild). t is the tree receiving the copy. copyNode
// locks src's slots left-to-right, copies them into a fresh node of t —
// value slots cloned by tree kind and passed to visit, if non-nil, with
// the VPN range each covers; the uniform fill once for the node's whole
// range — bills ForkNodeCost, and returns the copy with every bit of src
// still held, plus the arrival time the caller releases them with
// (src.forkUnlock). extra is added to the new node's reference count (the
// root's immortal reference, or a creator pin).
//
// Child links are the one thing the two policies copy differently. With
// link set, the copy shares src's child subtrees, bumping their links
// counts, so it is O(1) in subtree size. Otherwise each live child stays
// pinned and is appended to kids, for the caller to copy once src's bits
// are released.
func (t *Tree[V]) copyNode(cpu *hw.CPU, src *node[V], extra int64, visit func(cpu *hw.CPU, lo, hi uint64, src, dst *V), link bool, kids []forkKid[V]) (*node[V], uint64, []forkKid[V]) {
	arrive := cpu.Now()
	// Unmaterialized slots' bits carry no per-slot gates; their pending
	// virtual-time state lives in the node's uniform plateau table. Wait
	// out its latest busy period once, under the usual overlap rule. While
	// here, register this fork's busy period on the node so groups
	// materializing mid-fork restore gates that include it (see initGroup).
	src.matMu.Lock()
	src.waitUniformLocked(cpu, arrive)
	src.forkForks++
	if src.forkForks == 1 || arrive < src.forkBusy {
		src.forkBusy = arrive
	}
	src.matMu.Unlock()

	dst := t.cloneShell(cpu, src)
	var used int64
	if dst.uniSt != nil {
		used = SlotsPerNode
	}
	sp := span(src.level)
	for idx := 0; idx < SlotsPerNode; idx++ {
		gi := idx / slotsPerLine
		j := idx % slotsPerLine
		mask := uint64(1) << (uint(idx) & 63)
		w := &src.bits[idx>>6]
		g := src.groupLoad(gi)
		if g != nil {
			cpu.Write(&g.line)
			cpu.AcquireBitIn(w, mask, &g.gates[j])
		} else {
			// No group: the bit is normally free (held groupless bits
			// exist only transiently, mid-expansion — or for a whole
			// critical section, when a concurrent fork holds them). Spin
			// out any such holder; its virtual-time cost is settled by
			// the post-sweep merged-table wait below. No line exists to
			// charge, in keeping with the copy-on-diverge rule that
			// untouched slots cost nothing.
			for {
				old := w.Load()
				if old&mask == 0 {
					if w.CompareAndSwap(old, old|mask) {
						break
					}
					continue
				}
				runtime.Gosched()
			}
			// A concurrent locker may have materialized the group while
			// we raced for the bit; re-read so the state load sees it.
			g = src.groupLoad(gi)
		}

		var st *slotState[V]
		if g != nil {
			st = g.sts[j].Load()
		} else {
			st = src.uniSt
		}
		var child *node[V]
		if st != nil && st.child != nil {
			if child = t.loadChild(cpu, src, idx, st); child == nil {
				st = nil // the child died mid-reclaim; the slot is now empty
			}
		}
		switch {
		case st == nil:
			if dst.uniSt != nil {
				// src diverged this slot to empty; dst must too.
				dg := dst.forkGroup(t, gi)
				storePlain(&dg.sts[j], nil)
				used--
			}
		case child != nil:
			dg := dst.forkGroup(t, gi)
			if link {
				// Share the subtree instead of copying it. The pin makes
				// the links bump safe against concurrent reclamation.
				child.links.Add(1)
				dg.slab[j] = slotState[V]{child: child.obj}
				storePlain(&dg.sts[j], &dg.slab[j])
				t.unpin(cpu, child)
			} else {
				// Pinned: the child cannot be reclaimed. The caller fills
				// the dst slot once it has copied the subtree (dst is
				// private until the fork returns, so the order is
				// unobservable).
				kids = append(kids, forkKid[V]{child: child, dg: dg, j: j, idx: idx})
			}
			if dst.uniSt == nil {
				used++
			}
		case g == nil:
			// Uniform fill: already represented by dst's header; the
			// single whole-span visit runs below with every bit held.
		default:
			// A materialized value slot: give dst its own copy in the
			// mirrored group.
			dg := dst.forkGroup(t, gi)
			var dv *V
			switch t.kind {
			case cloneShared:
				dv = st.val
				dg.slab[j] = slotState[V]{val: dv}
			case cloneCopy:
				dg.vals[j] = *st.val
				dv = &dg.vals[j]
				dg.slab[j] = slotState[V]{val: dv}
			default:
				dv = t.clone(st.val)
				dg.slab[j] = slotState[V]{val: dv}
			}
			storePlain(&dg.sts[j], &dg.slab[j])
			if visit != nil {
				lo := src.slotBase(idx)
				visit(cpu, lo, lo+sp, st.val, dv)
			}
			if dst.uniSt == nil {
				used++
			}
		}
	}
	// A concurrent fork may have merged its busy period into the uniform
	// table after our entry wait — whether or not we ever observed one of
	// its bits held (it can release between our entry and our first bit
	// load). Consult the merged table once more now that every bit is
	// ours, so overlapping forks serialize in virtual time regardless of
	// how the real-time race resolved.
	src.matMu.Lock()
	src.waitUniformLocked(cpu, arrive)
	src.matMu.Unlock()
	// The uniform fill's single visit runs here, with every bit of the
	// node held (the sweep above took them all), so the visit contract —
	// src mutable under the covering slots' locks — holds for folded
	// state too; a trailing concurrent fork is still parked on the bits.
	if dst.uniSt != nil && visit != nil {
		hi := src.base + uint64(SlotsPerNode)*sp
		visit(cpu, src.base, hi, src.uniSt.val, dst.uniSt.val)
	}
	dst.obj = t.rc.NewObj(used+extra, freeNode[V])
	dst.obj.Data = dst
	return dst, arrive, kids
}

// cloneShell builds the child-tree counterpart of src: same level and
// base, a kind-appropriate copy of the uniform fill, no groups beyond the
// ones the caller mirrors slot by slot. t is the child tree. The metadata
// copy is billed by its logical size (ForkNodeCost): a header-sized tick
// for the uniform state plus a cache line per materialized source group,
// instead of the flat full-page charge the pre-cost-model fork paid.
func (t *Tree[V]) cloneShell(cpu *hw.CPU, src *node[V]) *node[V] {
	n := t.getNode(cpu)
	if n == nil {
		n = &node[V]{}
	}
	n.tree = t
	n.level = src.level
	n.base = src.base
	n.uni = uniformGates{}
	if src.uniSt != nil {
		switch t.kind {
		case cloneCopy:
			n.uniVal = *src.uniSt.val
			n.uniStore = slotState[V]{val: &n.uniVal}
		case cloneShared:
			n.uniStore = slotState[V]{val: src.uniSt.val}
		default:
			n.uniStore = slotState[V]{val: t.clone(src.uniSt.val)}
		}
		n.uniSt = &n.uniStore
	} else {
		n.uniSt = nil
	}
	n.forkBusy, n.forkForks = 0, 0
	n.gen = t.gen.Load()
	n.links.Store(1)
	// A pooled node may carry recycled groups where src has none; drop
	// them so the child's materialization shape is exactly the parent's.
	// Count the source's materialized groups while here: they price the
	// clone (logical-size billing below).
	srcGroups := 0
	if sd := src.dir.Load(); sd != nil {
		srcGroups = sd.count()
	}
	if d := n.dir.Load(); d != nil {
		sd := src.dir.Load()
		nd := &groupDir[V]{}
		n.forEachGroup(func(gi int, g *slotGroup[V]) {
			if sd != nil && sd.get(gi) != nil {
				nd.bits[gi>>6] |= 1 << (uint(gi) & 63)
				nd.groups = append(nd.groups, g)
			} else {
				t.groupsLive.Add(-1)
			}
		})
		if len(nd.groups) == 0 {
			nd = nil
		}
		n.dir.Store(nd)
	}
	cpu.Tick(ForkNodeCost(t.pageZero, srcGroups))
	t.nodesLive.Add(1)
	t.nodesEver.Add(1)
	return n
}

// forkGroup returns dst's group gi, creating it zeroed if absent (a fresh
// child group's gates start free, as in a brand-new address space). Unlike
// materialize it does not pre-fill slot states: copyNode overwrites every
// slot of a mirrored group explicitly.
func (n *node[V]) forkGroup(nt *Tree[V], gi int) *slotGroup[V] {
	if g := n.groupLoad(gi); g != nil {
		return g
	}
	g := new(slotGroup[V])
	n.dirInsert(gi, g)
	nt.groupsEver.Add(1)
	nt.groupsLive.Add(1)
	return g
}

// waitUniformLocked waits out the node's latest merged busy period for an
// arrival at virtual time at, under the usual overlap rule (an arrival
// predating the busy period passes through). Caller holds matMu.
func (n *node[V]) waitUniformLocked(cpu *hw.CPU, at uint64) {
	if u := &n.uni; u.n > 0 {
		if f := u.free[u.n-1]; f > at && at >= u.busyStart {
			cpu.AdvanceTo(f)
		}
	}
}

// forkUnlock releases every slot bit of n at the end of a fork. The
// uniform gate table is rewritten to one merged busy period — begun at the
// fork's arrival (or the table's earlier busyStart) and free now — which
// is exactly the state per-slot gates would hold and can never overflow
// the plateau capacity. Materialized groups release through their own
// gates. A group materialized *mid-fork* restored its gates with the
// fork's busy period merged in (initGroup consults forkBusy), so a
// concurrent locker waits out the fork's critical section exactly as it
// would behind any other holder.
func (n *node[V]) forkUnlock(cpu *hw.CPU, arrive uint64) {
	now := cpu.Now()
	n.matMu.Lock()
	n.forkForks--
	if n.forkForks == 0 {
		n.forkBusy = 0
	}
	merged := uniformGates{busyStart: arrive, n: 1}
	merged.free[0] = now
	if u := &n.uni; u.n > 0 {
		if u.busyStart < merged.busyStart {
			merged.busyStart = u.busyStart
		}
		if f := u.free[u.n-1]; f > now {
			merged.free[0] = f
		}
	}
	n.uni = merged
	for gi := groupsPerNode - 1; gi >= 0; gi-- {
		base := gi * slotsPerLine
		if g := n.groupLoad(gi); g != nil {
			for j := slotsPerLine - 1; j >= 0; j-- {
				idx := base + j
				cpu.ReleaseBitIn(&n.bits[idx>>6], uint64(1)<<(uint(idx)&63), &g.gates[j])
			}
		} else {
			n.bits[base>>6].And(^(uint64(0xF) << (uint(base) & 63)))
		}
	}
	n.matMu.Unlock()
}
