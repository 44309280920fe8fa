package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"radixvm/internal/hw"
	"radixvm/internal/vm"
)

// Operations a span can record. An access (Access or Fetch) is a fault
// when the calling core's PageFaults counter rose during the call, else a
// hit.
const (
	opFault = iota
	opHit
	opMmap
	opMunmap
	opMprotect
	opFork
	opExit
	numOps
)

var opNames = [numOps]string{"fault", "hit", "mmap", "munmap", "mprotect", "fork", "exit"}

// span is one System call as seen from outside the VM layer.
type span struct {
	op, sys      uint8
	core         int16
	cell         int32  // index of the enclosing cell span
	as           int32  // address-space id, shared by every op on one space
	hostStart    int64  // ns since the traced pass started
	hostEnd      int64  // ns since the traced pass started
	vStart, vEnd uint64 // CPU.Now() before and after the call
}

// cellSpan is the parent span of one workload × system × sub-loop call.
type cellSpan struct {
	sys                int
	loop               string
	hostStart, hostEnd int64
}

// child records when a forked address space was created and first
// touched, in virtual time, for the fork-to-first-touch latency.
type child struct {
	sys      int
	forkV    uint64
	firstV   uint64
	touched  bool
	parentAS int32
}

// tracer keeps every span of one traced pass in memory. The det schedule
// runs one simulated core at a time, but cores hand off across goroutines,
// so appends still take the mutex.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	cell     int32
	cells    []cellSpan
	spans    []span
	children map[int32]*child
	nextAS   int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), children: map[int32]*child{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) beginCell(sys int, loop string) {
	t.mu.Lock()
	t.cell = int32(len(t.cells))
	t.cells = append(t.cells, cellSpan{sys: sys, loop: loop, hostStart: t.now()})
	t.mu.Unlock()
}

func (t *tracer) endCell() { t.cells[t.cell].hostEnd = t.now() }

// record appends s and, for an access to a forked space, keeps the
// earliest virtual time at which that space was touched.
func (t *tracer) record(s span, ch *child) {
	t.mu.Lock()
	s.cell = t.cell
	t.spans = append(t.spans, s)
	if ch != nil && (s.op == opFault || s.op == opHit) && (!ch.touched || s.vEnd < ch.firstV) {
		ch.touched, ch.firstV = true, s.vEnd
	}
	t.mu.Unlock()
}

// traced decorates a vm.System, recording one span per call.
type traced struct {
	inner vm.System
	t     *tracer
	sys   uint8
	as    int32
	ch    *child // non-nil for a forked address space
}

// wrap decorates sys so that it exposes exactly the optional interfaces
// sys has: vm.Exiter decides whether workloads tear children down with
// Exit or an unmap sweep, and SetForkEager selects radixvm's fork, so
// hiding or adding either would change the simulated work. radixvm has
// both and the baselines neither.
func wrap(t *tracer, sysIdx int, sys vm.System, ch *child) vm.System {
	b := &traced{inner: sys, t: t, sys: uint8(sysIdx), ch: ch}
	t.mu.Lock()
	t.nextAS++
	b.as = t.nextAS
	if ch != nil {
		t.children[b.as] = ch
	}
	t.mu.Unlock()
	_, exits := sys.(vm.Exiter)
	_, eager := sys.(forkModer)
	switch {
	case exits && eager:
		return &tracedExitEager{b}
	case !exits && !eager:
		return b
	}
	panic(fmt.Sprintf("vmbench: %s has Exit %v, SetForkEager %v; the decorator covers both or neither", sys.Name(), exits, eager))
}

type forkModer interface{ SetForkEager(bool) }

// tracedExitEager is the decorator for a system with Exit and
// SetForkEager.
type tracedExitEager struct{ *traced }

func (w *tracedExitEager) Exit(cpu *hw.CPU) {
	s := w.begin(opExit, cpu)
	w.inner.(vm.Exiter).Exit(cpu)
	w.end(s, cpu)
}

func (w *tracedExitEager) SetForkEager(eager bool) { w.inner.(forkModer).SetForkEager(eager) }

func (w *traced) begin(op uint8, cpu *hw.CPU) span {
	return span{op: op, sys: w.sys, core: int16(cpu.ID()), as: w.as, hostStart: w.t.now(), vStart: cpu.Now()}
}

func (w *traced) end(s span, cpu *hw.CPU) {
	s.vEnd = cpu.Now()
	s.hostEnd = w.t.now()
	w.t.record(s, w.ch)
}

func (w *traced) Name() string           { return w.inner.Name() }
func (w *traced) PageTableBytes() uint64 { return w.inner.PageTableBytes() }

func (w *traced) Mmap(cpu *hw.CPU, vpn, npages uint64, opts vm.MapOpts) error {
	s := w.begin(opMmap, cpu)
	err := w.inner.Mmap(cpu, vpn, npages, opts)
	w.end(s, cpu)
	return err
}

func (w *traced) Munmap(cpu *hw.CPU, vpn, npages uint64) error {
	s := w.begin(opMunmap, cpu)
	err := w.inner.Munmap(cpu, vpn, npages)
	w.end(s, cpu)
	return err
}

func (w *traced) Mprotect(cpu *hw.CPU, vpn, npages uint64, prot vm.Prot) error {
	s := w.begin(opMprotect, cpu)
	err := w.inner.Mprotect(cpu, vpn, npages, prot)
	w.end(s, cpu)
	return err
}

func (w *traced) Access(cpu *hw.CPU, vpn uint64, write bool) error {
	return w.access(cpu, func() error { return w.inner.Access(cpu, vpn, write) })
}

func (w *traced) Fetch(cpu *hw.CPU, vpn uint64) error {
	return w.access(cpu, func() error { return w.inner.Fetch(cpu, vpn) })
}

func (w *traced) access(cpu *hw.CPU, call func() error) error {
	faults := cpu.Stats().PageFaults
	s := w.begin(opHit, cpu)
	err := call()
	if cpu.Stats().PageFaults != faults {
		s.op = opFault
	}
	w.end(s, cpu)
	return err
}

func (w *traced) Fork(cpu *hw.CPU) (vm.System, error) {
	s := w.begin(opFork, cpu)
	inner, err := w.inner.Fork(cpu)
	w.end(s, cpu)
	if err != nil {
		return nil, err
	}
	return wrap(w.t, int(w.sys), inner, &child{sys: int(w.sys), forkV: s.vStart, parentAS: w.as}), nil
}

// opStats summarizes one (system, op) pair of a traced pass.
type opStats struct {
	count    int
	hostNS   int64
	p50, p99 uint64
}

// layerStats is the per-layer view of one traced pass.
type layerStats struct {
	ops        [numSystems][numOps]opStats
	outsideNS  [numSystems]int64
	firstTouch [numSystems][]uint64 // fork-to-first-touch, virtual cycles
	// digest covers every span's virtual fields in call order; it must
	// repeat exactly from one traced pass to the next.
	digest uint64
}

func (t *tracer) summarize() layerStats {
	var ls layerStats
	var vc [numSystems][numOps][]uint64
	var inCalls [numSystems]int64
	h := newDigest()
	for _, s := range t.spans {
		o := &ls.ops[s.sys][s.op]
		o.count++
		d := s.hostEnd - s.hostStart
		o.hostNS += d
		inCalls[s.sys] += d
		vc[s.sys][s.op] = append(vc[s.sys][s.op], s.vEnd-s.vStart)
		h.add(uint64(s.op), uint64(s.sys), uint64(s.core), uint64(s.cell), uint64(s.as), s.vStart, s.vEnd)
	}
	ls.digest = h.sum()
	for i := range vc {
		for op := range vc[i] {
			v := vc[i][op]
			if len(v) == 0 {
				continue
			}
			sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
			ls.ops[i][op].p50 = v[len(v)*50/100]
			ls.ops[i][op].p99 = v[len(v)*99/100]
		}
	}
	var cellNS [numSystems]int64
	for _, c := range t.cells {
		cellNS[c.sys] += c.hostEnd - c.hostStart
	}
	for i := range cellNS {
		ls.outsideNS[i] = cellNS[i] - inCalls[i]
	}
	for _, ch := range t.children {
		if !ch.touched {
			continue
		}
		lat := uint64(0)
		if ch.firstV > ch.forkV {
			lat = ch.firstV - ch.forkV
		}
		ls.firstTouch[ch.sys] = append(ls.firstTouch[ch.sys], lat)
	}
	return ls
}

// writeSpans writes every span and cell span of the pass as CSV.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,name,cell,as,parent_as,core,host_start_ns,host_end_ns,vstart,vend")
	for i, c := range t.cells {
		fmt.Fprintf(w, "cell,%s/%s,%d,,,,%d,%d,,\n", systems[c.sys].name, c.loop, i, c.hostStart, c.hostEnd)
	}
	for _, s := range t.spans {
		parent := ""
		if ch := t.children[s.as]; ch != nil {
			parent = fmt.Sprint(ch.parentAS)
		}
		fmt.Fprintf(w, "op,%s.%s,%d,%d,%s,%d,%d,%d,%d,%d\n", systems[s.sys].module, opNames[s.op],
			s.cell, s.as, parent, s.core, s.hostStart, s.hostEnd, s.vStart, s.vEnd)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
