package hw

import (
	"sync/atomic"
	"testing"
)

// checkDetSkew runs ncores members that all write one shared line under the
// deterministic schedule and checks its skew bound: when Sync returns, the
// member holds the lowest clock of every member still in its loop, so no
// member ever runs more than one iteration ahead of the slowest.
func checkDetSkew(t *testing.T, cfg Config, ncores int) {
	t.Helper()
	m := NewMachine(cfg)
	var l Line
	done := make([]bool, ncores)
	RunGangDet(m, ncores, func(c *CPU, g *Gang) {
		for k := 0; k < 200; k++ {
			c.Write(&l)
			c.Tick(100)
			g.Sync(c)
			now := c.Now()
			for j := 0; j < ncores; j++ {
				if other := m.CPU(j).Now(); !done[j] && other < now {
					t.Errorf("core %d (socket %d) resumed at clock %d, ahead of live core %d at %d",
						c.ID(), c.Socket(), now, j, other)
					return
				}
			}
		}
		done[c.ID()] = true
	})
}

func TestGangBoundsSkew(t *testing.T) {
	checkDetSkew(t, TestConfig(4), 4)
}

// TestGangTreeCrossSocketSkew: the skew bound is global — with members
// spread over several sockets, none runs ahead of a slower member on
// another socket.
func TestGangTreeCrossSocketSkew(t *testing.T) {
	cfg := TestConfig(6)
	cfg.CoresPerSocket = 2 // sockets {0,1} {2,3} {4,5}
	checkDetSkew(t, cfg, 6)
}

func TestGangForcesInterleaving(t *testing.T) {
	// Two cores alternately writing one line must both observe transfers
	// when gang-scheduled (unscheduled, the Go scheduler may run one
	// core's whole loop before the other's).
	m := NewMachine(TestConfig(2))
	var l Line
	RunGangDet(m, 2, func(c *CPU, g *Gang) {
		for k := 0; k < 300; k++ {
			c.Write(&l)
			c.Tick(100)
			g.Sync(c)
		}
	})
	// With interleaving, the vast majority of the 600 writes transfer.
	if tr := m.TotalStats().Transfers; tr < 300 {
		t.Errorf("transfers = %d, want >= 300 (interleaving not enforced)", tr)
	}
}

func TestGangLeaveUnblocksOthers(t *testing.T) {
	// A member finishing early must not stall the rest.
	m := NewMachine(TestConfig(3))
	RunGangDet(m, 3, func(c *CPU, g *Gang) {
		iters := 50
		if c.ID() == 0 {
			iters = 1 // finishes almost immediately
		}
		for k := 0; k < iters; k++ {
			c.Tick(1000)
			g.Sync(c)
		}
	})
	if m.CPU(2).Now() < 50*1000 {
		t.Errorf("core 2 did not complete: clock %d", m.CPU(2).Now())
	}
}

// TestRunGangFreeRunning: the free-running driver runs every member on its
// own goroutine, and its members can share a real-time barrier.
func TestRunGangFreeRunning(t *testing.T) {
	const ncores = 8
	m := NewMachine(TestConfig(ncores))
	b := NewBarrier(ncores)
	var ran atomic.Int64
	var l Line
	RunGang(m, ncores, func(c *CPU, g *Gang) {
		for k := 0; k < 50; k++ {
			c.Write(&l)
			c.Tick(uint64(10 * (c.ID() + 1)))
			g.Sync(c)
		}
		ran.Add(1)
		b.Wait(c, g)
		if n := ran.Load(); n != ncores {
			t.Errorf("core %d passed the barrier with %d of %d members done", c.ID(), n, ncores)
		}
	})
}
