package main

import (
	"fmt"
	"testing"
	"time"

	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

func newEnv(cores int) (*workload.Env, *mem.Allocator) {
	m := hw.NewMachine(hw.DefaultConfig(cores))
	rc := refcache.New(m)
	return &workload.Env{M: m, RC: rc}, mem.NewAllocator(m, rc)
}

// The decorator must expose exactly the optional interfaces the wrapped
// system has, on parents and on forked children, or workloads would tear
// baseline children down with an Exit they lack, or fail to select
// radixvm's fork mode.
func TestWrapPreservesOptionalInterfaces(t *testing.T) {
	for i, s := range systems {
		e, a := newEnv(2)
		inner := s.make(e, a)
		w := wrap(newTracer(), i, inner, nil)
		sameInterfaces(t, s.name+" parent", inner, w)

		c := e.M.CPU(0)
		innerChild, err := inner.Fork(c)
		if err != nil {
			t.Fatal(err)
		}
		wrappedChild, err := w.Fork(c)
		if err != nil {
			t.Fatal(err)
		}
		sameInterfaces(t, s.name+" child", innerChild, wrappedChild)

		if fm, ok := w.(forkModer); ok {
			as := inner.(*vm.AddressSpace)
			fm.SetForkEager(!as.ForkEager())
			want := !as.ForkEager()
			fm.SetForkEager(want)
			if as.ForkEager() != want {
				t.Errorf("%s: SetForkEager did not reach the wrapped system", s.name)
			}
		}
	}
}

func sameInterfaces(t *testing.T, what string, inner, wrapped vm.System) {
	t.Helper()
	_, ie := inner.(vm.Exiter)
	_, we := wrapped.(vm.Exiter)
	_, im := inner.(forkModer)
	_, wm := wrapped.(forkModer)
	if ie != we || im != wm {
		t.Errorf("%s: wrapped Exiter/SetForkEager = %v/%v, system has %v/%v", what, we, wm, ie, im)
	}
}

// Reading CPU.Now around every call must not move virtual time: a traced
// run simulates exactly what an untraced one does.
func TestTracingIsVirtualTimeNeutral(t *testing.T) {
	runs := map[string]func(e *workload.Env, a *mem.Allocator, sys vm.System) any{
		"spawn": func(e *workload.Env, _ *mem.Allocator, sys vm.System) any {
			return workload.Spawn(e, sys, 4, 2, 4)
		},
		"fleet": func(e *workload.Env, _ *mem.Allocator, sys vm.System) any {
			cfg := workload.DefaultFleetConfig()
			cfg.Procs, cfg.MaxLive, cfg.TemplatePages = 24, 16, 256
			return workload.Fleet(e, sys, 4, cfg)
		},
		"filemap": func(e *workload.Env, a *mem.Allocator, sys vm.System) any {
			cfg := workload.DefaultFileServeConfig()
			cfg.Procs, cfg.MaxLive, cfg.WBRounds = 24, 16, 8
			return workload.FileServe(e, sys, 4, a, cfg)
		},
	}
	for name, run := range runs {
		for i, s := range systems {
			e, a := newEnv(4)
			plain := fmt.Sprintf("%#v", run(e, a, s.make(e, a)))
			tr := newTracer()
			e, a = newEnv(4)
			traced := fmt.Sprintf("%#v", run(e, a, wrap(tr, i, s.make(e, a), nil)))
			if plain != traced {
				t.Errorf("%s/%s: traced run differs:\nplain  %s\ntraced %s", name, s.name, plain, traced)
			}
			if len(tr.spans) == 0 {
				t.Errorf("%s/%s: no spans recorded", name, s.name)
			}
		}
	}
}

func TestModuleShares(t *testing.T) {
	counts := map[string]int64{}
	err := profilePass(counts, func() {
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			e, a := newEnv(8)
			workload.Protect(e, systems[0].make(e, a), 8, 20, 4)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	sh := shares(counts)
	for _, m := range profModules {
		sum += sh[m]
	}
	if sum <= 0.5 || sum > 1+1e-9 {
		t.Errorf("module shares sum to %v, want most of 1: %v", sum, counts)
	}
	if counts["hw"] == 0 && counts["vm"] == 0 && counts["radix"] == 0 {
		t.Errorf("no samples charged to the simulator's modules: %v", counts)
	}
}

func TestInternalModule(t *testing.T) {
	for fn, want := range map[string]string{
		"radixvm/internal/hw.(*CPU).Now":               "hw",
		"radixvm/internal/radix.(*Tree[...]).forkNode": "radix",
		"radixvm/internal/workload.Fleet.func3":        "workload",
		"runtime.mallocgc":                             "",
		"main.(*traced).Access":                        "",
	} {
		got, ok := internalModule(fn)
		if got != want || ok != (want != "") {
			t.Errorf("internalModule(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

func TestTailOf(t *testing.T) {
	v := make([]uint64, 100)
	for i := range v {
		v[i] = uint64(100 - i)
	}
	tail, p50, pct := tailOf(v)
	if tail != 90 || p50 != 51 || pct != 90 {
		t.Errorf("tailOf(1..100) = %d, %d, p%v; want 90, 51, p90", tail, p50, pct)
	}
	if tail, _, _ := tailOf([]uint64{3, 1, 2}); tail != 3 {
		t.Errorf("tailOf of three samples = %d, want the maximum 3", tail)
	}
}
