package hw

import (
	"sync"
	"testing"
)

func TestBarrierAlignsClocks(t *testing.T) {
	m := NewMachine(TestConfig(4))
	b := NewBarrier(4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			c.Tick(uint64(1000 * (c.ID() + 1)))
			b.Wait(c, nil)
			if c.Now() != 4000 {
				t.Errorf("core %d clock %d after barrier, want 4000", c.ID(), c.Now())
			}
		}(m.CPU(i))
	}
	wg.Wait()
}

func TestBarrierSequentialGenerations(t *testing.T) {
	m := NewMachine(TestConfig(2))
	b := NewBarrier(2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				c.Tick(uint64(100 * (c.ID() + 1)))
				b.Wait(c, nil)
			}
		}(m.CPU(i))
	}
	wg.Wait()
	if m.CPU(0).Now() != m.CPU(1).Now() {
		t.Errorf("clocks diverged: %d vs %d", m.CPU(0).Now(), m.CPU(1).Now())
	}
}

func TestBarrierWithGang(t *testing.T) {
	m := NewMachine(TestConfig(3))
	b := NewBarrier(3)
	RunGangDet(m, 3, func(c *CPU, g *Gang) {
		for k := 0; k < 20; k++ {
			c.Tick(uint64(50 * (c.ID() + 1)))
			g.Sync(c)
		}
		b.Wait(c, g)
		if c.Now() < 20*150 {
			t.Errorf("core %d clock %d below slowest member", c.ID(), c.Now())
		}
	})
}

func TestBarrierGenerationsDoNotBleed(t *testing.T) {
	// A waiter of generation g must align to g's max, not to arrivals of
	// generation g+1 made by fast cores that already moved on.
	m := NewMachine(TestConfig(3))
	b := NewBarrier(3)
	var wg sync.WaitGroup
	bad := make([]uint64, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			for k := 1; k <= 30; k++ {
				c.Tick(uint64(100 * (c.ID() + 1)))
				b.Wait(c, nil)
				// After round k, the aligned clock is exactly
				// k * 300 (the slowest member's total).
				if want := uint64(k * 300); c.Now() != want {
					bad[c.ID()] = c.Now()
					return
				}
			}
		}(m.CPU(i))
	}
	wg.Wait()
	for id, v := range bad {
		if v != 0 {
			t.Errorf("core %d misaligned: clock %d", id, v)
		}
	}
}
