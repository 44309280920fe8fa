package hw

import (
	"runtime"
	"sync"
)

// Gang is the handle a gang member's body yields through: Sync once per
// loop iteration, and Barrier.Wait at phase boundaries. Under RunGangDet
// and Sched.Run it is wired to the deterministic schedule (detgang.go),
// which is the only runner that makes virtual-time claims; under RunGang
// it is free-running.
type Gang struct {
	det *detSched // nil under the free-running RunGang
}

// Sync is a member's yield point. Under the deterministic schedule it
// hands the token to the lowest-clock runnable member; free-running, it
// only yields the goroutine.
func (g *Gang) Sync(cpu *CPU) {
	if g.det == nil {
		runtime.Gosched()
		return
	}
	g.det.yield(cpu)
}

// RunGang runs fn(cpu) on cores [0, ncores) of m, one goroutine per core,
// and waits for completion. It is free-running and makes no virtual-time
// claim: Sync only yields, Barrier.Wait blocks in real time, and which of
// two virtually-concurrent operations resolves first is whatever the Go
// scheduler picks, so clocks may skew without bound. It exists to drive
// real concurrency under the race detector; anything that reports virtual
// time runs under RunGangDet or Sched.Run.
func RunGang(m *Machine, ncores int, fn func(cpu *CPU, g *Gang)) {
	g := &Gang{}
	var wg sync.WaitGroup
	for i := 0; i < ncores; i++ {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			fn(c, g)
		}(m.CPU(i))
	}
	wg.Wait()
}
