package hw

import (
	"sync/atomic"
	"testing"
)

// TestSchedPinnedGangEquivalence pins the degenerate-fleet claim from the
// Sched doc comment: N procs, each pinned to its own core, produce exactly
// the virtual timeline a fixed det gang produces for the same bodies —
// same per-core clocks, same stats. This is what keeps figures produced
// through the scheduler byte-identical to the pre-scheduler ones.
func TestSchedPinnedGangEquivalence(t *testing.T) {
	const ncores = 4
	const iters = 200
	body := func(c *CPU, l *Line, sync func()) {
		for k := 0; k < iters; k++ {
			c.Write(l)
			c.Tick(100)
			sync()
		}
	}

	mg := NewMachine(TestConfig(ncores))
	var lg Line
	RunGangDet(mg, ncores, func(c *CPU, g *Gang) {
		body(c, &lg, func() { g.Sync(c) })
	})

	ms := NewMachine(TestConfig(ncores))
	var ls Line
	s := NewSched(0)
	for id := 0; id < ncores; id++ {
		s.Spawn(id, func(tc *Ctx) {
			body(tc.CPU(), &ls, tc.Yield)
		})
	}
	s.Run(ms, ncores)

	for id := 0; id < ncores; id++ {
		if g, sc := mg.CPU(id).Now(), ms.CPU(id).Now(); g != sc {
			t.Errorf("core %d: gang clock %d != sched clock %d", id, g, sc)
		}
	}
	if g, sc := mg.TotalStats(), ms.TotalStats(); g != sc {
		t.Errorf("stats diverged:\n gang: %+v\nsched: %+v", g, sc)
	}
	if s.Switches() != 0 {
		t.Errorf("pinned one-proc-per-core fleet paid %d context switches, want 0", s.Switches())
	}
}

// TestSchedMigration: more migratable procs than cores must all run to
// completion, spreading across workers, and every redispatch that changes
// procs on a worker must be counted as a switch.
func TestSchedMigration(t *testing.T) {
	const ncores = 2
	const nprocs = 6
	m := NewMachine(TestConfig(ncores))
	s := NewSched(0)
	s.SwitchCost = 500
	cores := make([]map[int]bool, nprocs)
	for i := 0; i < nprocs; i++ {
		i := i
		cores[i] = make(map[int]bool)
		s.Spawn(-1, func(tc *Ctx) {
			for k := 0; k < 20; k++ {
				c := tc.CPU()
				cores[i][c.ID()] = true
				c.Tick(300)
				tc.Yield()
			}
		})
	}
	s.Run(m, ncores)
	migrated := false
	for i, set := range cores {
		if len(set) == 0 {
			t.Fatalf("proc %d never ran", i)
		}
		if len(set) > 1 {
			migrated = true
		}
	}
	if !migrated {
		t.Errorf("no proc ever migrated across %d workers", ncores)
	}
	if s.Switches() == 0 {
		t.Errorf("oversubscribed fleet recorded zero context switches")
	}
	if s.Dispatches() < nprocs*20 {
		t.Errorf("dispatches = %d, want >= %d", s.Dispatches(), nprocs*20)
	}
}

// TestSchedParkWake: a consumer parks until a producer wakes it; a Wake
// that lands before the Park (the pending-wakeup protocol) makes the Park
// return immediately instead of stranding the consumer.
func TestSchedParkWake(t *testing.T) {
	m := NewMachine(TestConfig(2))
	s := NewSched(0)
	var order []string
	consumer := s.Spawn(0, func(tc *Ctx) {
		order = append(order, "consumer-park")
		tc.Park()
		order = append(order, "consumer-woke")
		tc.Park() // the producer's second Wake is already pending: no block
		order = append(order, "consumer-done")
	})
	s.Spawn(1, func(tc *Ctx) {
		tc.CPU().Tick(5000) // let the consumer reach its Park first
		tc.Yield()
		order = append(order, "producer-wake")
		tc.Sched().Wake(consumer)
		tc.Sched().Wake(consumer) // consumer is ready: arms wakePending
	})
	s.Run(m, 2)
	want := []string{"consumer-park", "producer-wake", "consumer-woke", "consumer-done"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSchedQueueCapDefersArrivals: the admission cap counts the whole
// ready backlog — pinned queues included — and a due arrival must wait
// until the backlog drains below the cap. (The cap originally counted only
// the migratable queue, which made it dead for all-pinned fleets.)
func TestSchedQueueCapDefersArrivals(t *testing.T) {
	m := NewMachine(TestConfig(2))
	s := NewSched(2)
	var folded int
	s.Arrive(1000, func(c *CPU, seq uint64) {
		folded++
		for i := 0; i < 4; i++ {
			s.Spawn(0, func(tc *Ctx) { // spawns bypass the cap: backlog 3-4
				for k := 0; k < 10; k++ {
					tc.CPU().Tick(500)
					tc.Yield()
				}
			})
		}
	})
	s.Arrive(1100, func(c *CPU, seq uint64) {
		folded++
		if got := s.DeferredArrivals(); got == 0 {
			t.Errorf("second arrival folded with no deferral recorded; backlog never gated it")
		}
	})
	s.Run(m, 2)
	if folded != 2 {
		t.Errorf("folded %d arrivals, want 2", folded)
	}
	if high := s.RunQueueHighWater(); high < 3 {
		t.Errorf("ready-backlog high water = %d, want >= 3 (pinned procs must count)", high)
	}
}

// TestSchedIdleArrivalAdoption: with nothing runnable anywhere and spawn
// arrivals still pending, idle workers behave as halted CPUs — each
// advances its clock to the next arrival stamp, so folds land on the
// lowest-clock cores and spread across the machine instead of piling onto
// whichever worker happens to be busy. (The old rule let only the last
// active worker advance time, which froze laggard cores' clocks for whole
// runs and starved epoch-based machinery behind them.)
func TestSchedIdleArrivalAdoption(t *testing.T) {
	const ncores = 4
	m := NewMachine(TestConfig(ncores))
	s := NewSched(0)
	stamps := []uint64{10_000, 20_000, 30_000, 40_000}
	foldCores := make(map[int]bool)
	var late atomic.Uint64
	for _, st := range stamps {
		st := st
		s.Arrive(st, func(c *CPU, seq uint64) {
			if c.Now() < st {
				late.Add(1) // fold before the stamp: clock never advanced
			}
			foldCores[c.ID()] = true
			s.Spawn(-1, func(tc *Ctx) {
				tc.CPU().Tick(2000)
			})
		})
	}
	s.Run(m, ncores)
	if late.Load() != 0 {
		t.Errorf("%d arrivals folded below their stamp", late.Load())
	}
	if len(foldCores) < 2 {
		t.Errorf("all folds landed on one core: %v (idle workers never adopted arrivals)", foldCores)
	}
	if mc := m.MaxClock(); mc < stamps[len(stamps)-1] {
		t.Errorf("machine clock %d never reached the last arrival stamp %d", mc, stamps[len(stamps)-1])
	}
}
