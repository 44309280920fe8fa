package main

import (
	"fmt"

	"radixvm/internal/bonsaivm"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

// system is one of the three VM systems every workload runs on. module is
// the package that implements it, which names its per-layer metrics.
type system struct {
	name, module string
	make         func(e *workload.Env, a *mem.Allocator) vm.System
}

const numSystems = 3

var systems = [numSystems]system{
	{"radixvm", "vm", func(e *workload.Env, a *mem.Allocator) vm.System { return vm.New(e.M, e.RC, a, nil) }},
	{"linux", "linuxvm", func(e *workload.Env, a *mem.Allocator) vm.System { return linuxvm.New(e.M, e.RC, a) }},
	{"bonsai", "bonsaivm", func(e *workload.Env, a *mem.Allocator) vm.System { return bonsaivm.New(e.M, e.RC, a) }},
}

// outcome is what one cell reports besides its host time.
type outcome struct {
	res workload.Result
	// work counts the units of the workload's simulated rate: page writes
	// (vmops64), spawns (fleet) or page faults (filemap).
	work      uint64
	runqHigh  int
	deferred  uint64
	fills     uint64
	ipisPerWB float64
	reviews   uint64
	reviewQ   int
	// detail is the workload's whole result in Go syntax (%#v: the
	// result's String method would print only its rate); its digest must
	// repeat exactly in every pass.
	detail string
}

// simOps counts the simulated operations a cell performed after its warm
// phase: mmaps, munmaps, mprotects, forks and page faults.
func (o outcome) simOps() uint64 {
	s := o.res.Stats
	return s.Mmaps + s.Munmaps + s.Mprotects + s.Forks + s.PageFaults
}

// loop is one sub-loop of a workload, run once per system in every pass.
type loop struct {
	name string
	run  func(e *workload.Env, a *mem.Allocator, sys vm.System, seed int64) (outcome, error)
}

type workloadDef struct {
	name  string
	cores int
	loops []loop
}

// Run lengths. A pass runs every loop on every system once; these sizes
// keep one pass near 1-2 s of host time on one core, so a run holds
// several passes and reports their median.
const (
	vmopsCores     = 64
	protectIters   = 20
	protectPages   = 4
	forkIters      = 2
	forkPages      = 16
	fleetCores     = 8
	fleetProcs     = 160
	fleetMaxLive   = 128
	filemapCores   = 8
	filemapProcs   = 512
	filemapMaxLive = 256
)

var workloads = []workloadDef{
	{name: "vmops64", cores: vmopsCores, loops: []loop{
		{"mprotect", func(e *workload.Env, _ *mem.Allocator, sys vm.System, _ int64) (outcome, error) {
			r := workload.Protect(e, sys, vmopsCores, protectIters, protectPages)
			return writesOutcome(r, vmopsCores*protectIters*protectPages)
		}},
		{"fork", func(e *workload.Env, _ *mem.Allocator, sys vm.System, _ int64) (outcome, error) {
			r := workload.Fork(e, sys, vmopsCores, forkIters, forkPages)
			return writesOutcome(r, vmopsCores*forkIters*forkPages)
		}},
		{"spawn", func(e *workload.Env, _ *mem.Allocator, sys vm.System, _ int64) (outcome, error) {
			r := workload.Spawn(e, sys, vmopsCores, forkIters, forkPages)
			return writesOutcome(r, vmopsCores*forkIters*2*forkPages)
		}},
	}},
	{name: "fleet", cores: fleetCores, loops: []loop{
		{"fleet", func(e *workload.Env, _ *mem.Allocator, sys vm.System, seed int64) (outcome, error) {
			cfg := workload.DefaultFleetConfig()
			cfg.Procs, cfg.MaxLive, cfg.Seed = fleetProcs, fleetMaxLive, seed
			r := workload.Fleet(e, sys, fleetCores, cfg)
			o := outcome{res: r.Result, work: r.Spawns, runqHigh: r.RunQHigh, deferred: r.Deferred, detail: fmt.Sprintf("%#v", r)}
			want := uint64(cfg.Procs * cfg.Threads)
			switch {
			case r.Spawns != uint64(cfg.Procs) || r.Stats.Forks != r.Spawns:
				return o, fmt.Errorf("fleet: %d spawns, %d forks, want %d", r.Spawns, r.Stats.Forks, cfg.Procs)
			case r.PageWrites != want*cfg.TouchPages:
				return o, fmt.Errorf("fleet: %d page writes, want %d", r.PageWrites, want*cfg.TouchPages)
			case len(r.Evictions)+r.LiveEnd != cfg.Procs:
				return o, fmt.Errorf("fleet: %d evicted + %d live != %d procs", len(r.Evictions), r.LiveEnd, cfg.Procs)
			}
			return o, cyclesCheck(r.Result)
		}},
	}},
	{name: "filemap", cores: filemapCores, loops: []loop{
		{"filemap", func(e *workload.Env, a *mem.Allocator, sys vm.System, seed int64) (outcome, error) {
			cfg := workload.DefaultFileServeConfig()
			cfg.Procs, cfg.MaxLive, cfg.Seed = filemapProcs, filemapMaxLive, seed
			r := workload.FileServe(e, sys, filemapCores, a, cfg)
			o := outcome{res: r.Result, work: r.Faults, runqHigh: r.RunQHigh, deferred: r.Deferred,
				fills: r.CacheFills, ipisPerWB: r.IPIsPerWriteback(), detail: fmt.Sprintf("%#v", r)}
			reads := uint64(cfg.Procs*cfg.Threads) * cfg.WindowPages
			switch {
			case r.Spawns != uint64(cfg.Procs) || r.Stats.Forks != r.Spawns:
				return o, fmt.Errorf("filemap: %d spawns, %d forks, want %d", r.Spawns, r.Stats.Forks, cfg.Procs)
			case r.PageWrites != reads:
				return o, fmt.Errorf("filemap: %d reads, want %d", r.PageWrites, reads)
			case r.Writebacks != uint64(cfg.WBRounds) || r.Truncates != uint64(cfg.WBRounds/cfg.TruncEvery):
				return o, fmt.Errorf("filemap: %d writebacks, %d truncates", r.Writebacks, r.Truncates)
			case r.Faults == 0 || r.CacheFills == 0:
				return o, fmt.Errorf("filemap: %d faults, %d cache fills", r.Faults, r.CacheFills)
			}
			return o, cyclesCheck(r.Result)
		}},
	}},
}

func writesOutcome(r workload.Result, want int) (outcome, error) {
	o := outcome{res: r, work: r.PageWrites, detail: fmt.Sprintf("%#v", r)}
	if r.PageWrites != uint64(want) {
		return o, fmt.Errorf("%s: %d page writes, want %d", r.Name, r.PageWrites, want)
	}
	return o, cyclesCheck(r)
}

func cyclesCheck(r workload.Result) error {
	if r.Cycles == 0 {
		return fmt.Errorf("%s: no virtual time elapsed", r.Name)
	}
	return nil
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// cellResult is one cell of one pass.
type cellResult struct {
	sys    int
	loop   string
	hostNS int64
	out    outcome
	digest uint64
	err    error
}

// runCell builds a fresh machine and system and runs one sub-loop on it,
// wrapped in the tracer's decorator when t is non-nil. A panic on the
// calling goroutine is reported as the cell's error; one on a scheduled
// proc's goroutine cannot be recovered and ends the process.
func runCell(w workloadDef, l loop, sysIdx int, seed int64, t *tracer) (c cellResult) {
	c = cellResult{sys: sysIdx, loop: l.name}
	m := hw.NewMachine(hw.DefaultConfig(w.cores))
	rc := refcache.New(m)
	e := &workload.Env{M: m, RC: rc}
	a := mem.NewAllocator(m, rc)
	sys := systems[sysIdx].make(e, a)
	if t != nil {
		t.beginCell(sysIdx, l.name)
		defer t.endCell()
		sys = wrap(t, sysIdx, sys, nil)
	}
	defer func() {
		if p := recover(); p != nil {
			c.err = fmt.Errorf("%s/%s panicked: %v", systems[sysIdx].name, l.name, p)
		}
	}()
	out, err := l.run(e, a, sys, seed)
	out.reviews, out.reviewQ = rc.Reviews(), rc.ReviewQueueHighWater()
	h := newDigest()
	h.addString(out.detail)
	h.add(out.reviews, uint64(out.reviewQ))
	c.out, c.digest, c.err = out, h.sum(), err
	return c
}
