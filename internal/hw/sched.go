package hw

import (
	"fmt"
	"sort"
	"sync"
)

// Sched schedules processes onto the cores of a deterministic gang. It is
// the layer that turns "a gang runs one workload function" into "a machine
// schedules processes": gang members become worker cores that pull
// runnable procs from a capped run queue at yield points, and the procs —
// coroutine-style contexts, each a goroutine that runs only while a worker
// lends it that worker's CPU — carry the actual workload bodies.
//
// Dispatch order is a pure function of (virtual clock, core ID, arrival
// seq): the deterministic gang (detgang.go) picks which worker core acts
// next by lowest (virtual clock, core ID), and that worker picks the
// lowest-seq runnable proc (its own pinned queue first, then the shared
// migratable queue). Fleet figures built on Sched are therefore byte-
// stable across runs for exactly the same reason the fixed-gang figures
// are.
//
// A fixed gang is the degenerate fleet: N procs, each pinned to its own
// core. In that shape the scheduler adds no virtual time at all — a worker
// redispatching the proc it last ran charges nothing, AdvanceTo to the
// proc's own last clock is a no-op, and the worker's post-yield Sync lands
// exactly where the old workload bodies called g.Sync — so figures
// produced through Sched are byte-identical to the pre-scheduler ones.
//
// Idle cores park through the det gang's token machinery (detIdle): a
// worker with nothing runnable freezes its clock and leaves the schedule
// until a proc is enqueued for it. The one exception: while spawn
// arrivals are still pending and the backlog has room, an idle worker is
// a halted CPU sleeping until the next event — it advances its clock to
// the next arrival stamp instead of parking, so virtual time always
// progresses toward the next event and arrival folds land on the
// lowest-clock (idle) cores first. This folds the old Gang.Block
// off-schedule re-entry into the scheduler's own yield protocol: a proc
// that must wait for another proc calls Ctx.Park, its worker parks idle
// on-schedule, and the peer's Wake re-enqueues it deterministically.
type Sched struct {
	g      *Gang
	ncores int

	// queueCap bounds the total ready backlog (migratable run queue plus
	// every pinned queue). Arrivals are admission-controlled against it: a
	// due arrival is folded only while the backlog has room, mirroring a
	// fork handler that pulls from its accept queue only when the run
	// queue can take the children. Yield requeues are exempt — the cap is
	// admission control, not a running-proc limit.
	queueCap int

	// SwitchCost is the virtual cycles a worker charges when it dispatches
	// a different proc than the one it last ran (context-switch cost).
	// Redispatching the same proc is free, so single-proc-per-core
	// workloads never pay it.
	SwitchCost uint64

	mu          sync.Mutex
	seq         uint64
	procs       []*Proc   // every spawned proc, ascending seq
	runq        []*Proc   // migratable ready procs, ascending seq
	pinq        [][]*Proc // per-core pinned ready procs, ascending seq
	arrivals    []arrival // future spawn requests, ascending (stamp, seq)
	nextArrival int
	remaining   int   // procs not yet done
	migratable  int   // migratable procs not yet done
	pinned      []int // per-core pinned procs not yet done
	ready       int   // procs currently in a queue (runq + all pinq)
	active      int   // workers neither idle-parked nor finished
	running     bool

	// Diagnostics (read after Run via the accessors).
	runqHigh     int
	dispatches   uint64
	switches     uint64
	deferred     uint64 // arrivals whose fold was deferred by a full queue
	lastDeferred uint64 // last seq counted in deferred; ^0 = none yet
}

// Proc states, guarded by Sched.mu.
const (
	procReady int8 = iota
	procRunning
	procParked
	procDone
)

// Yield kinds a proc hands back to its worker.
const (
	yieldSync int8 = iota
	yieldPark
	yieldDone
)

// Proc is one schedulable context: a body that runs on whichever worker
// core dispatches it, yielding the core back cooperatively. The proc's
// goroutine runs only between a worker's resume send and the proc's next
// yield send, so at most one of (worker, proc) per core chain executes at
// a time and the det gang's one-runner-at-a-time invariant holds.
type Proc struct {
	seq  uint64 // arrival order: dispatch tiebreak and determinism anchor
	pin  int    // core ID the proc is pinned to, or -1 if migratable
	body func(*Ctx)
	ctx  Ctx

	resume chan *CPU // worker -> proc: the lent CPU
	yield  chan int8 // proc -> worker: yieldSync/yieldPark/yieldDone

	state       int8
	wakePending bool // Wake arrived while ready/running: next Park no-ops
	started     bool
	lastClock   uint64 // virtual clock at the proc's last yield
	lastCore    int    // core that last ran the proc, -1 before first run
}

// Seq returns the proc's arrival sequence number.
func (p *Proc) Seq() uint64 { return p.seq }

// arrival is a future spawn request: at virtual time stamp, fn runs on
// whichever worker core's clock crosses the stamp first (the fork-handler
// shape: fn typically forks an address space and Spawns the child's
// threads).
type arrival struct {
	stamp uint64
	seq   uint64
	fn    func(c *CPU, seq uint64)
}

// Ctx is the execution context a proc body runs under. CPU returns the
// currently lent core — it changes across Yield/Park for migratable
// procs, so bodies must re-read it after every yield point.
type Ctx struct {
	s *Sched
	p *Proc
	c *CPU
}

// CPU returns the core currently lent to the proc.
func (tc *Ctx) CPU() *CPU { return tc.c }

// Sched returns the scheduler running the proc.
func (tc *Ctx) Sched() *Sched { return tc.s }

// Yield hands the core back to the worker, which requeues the proc, syncs
// the gang, and redispatches by (virtual clock, core ID, seq). The det-
// mode Sync this triggers is exactly where the pre-scheduler workload
// bodies called g.Sync(c).
func (tc *Ctx) Yield() {
	tc.p.yield <- yieldSync
	tc.c = <-tc.p.resume
}

// Park blocks the proc until another proc Wakes it. A Wake that arrived
// since the last yield point makes Park return immediately (the pending-
// wakeup protocol, so a producer's Wake is never lost to a racing Park).
// The proc's virtual clock freezes while parked.
func (tc *Ctx) Park() {
	s := tc.s
	s.mu.Lock()
	if tc.p.wakePending {
		tc.p.wakePending = false
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	tc.p.yield <- yieldPark
	tc.c = <-tc.p.resume
}

// Wait parks the proc at b through the gang's deterministic barrier: the
// proc's core chain waits off the worker's back, and the barrier release
// realigns clocks exactly as for a fixed-gang member.
func (tc *Ctx) Wait(b *Barrier) { b.Wait(tc.c, tc.s.g) }

// NewSched creates a scheduler whose migratable run queue admits at most
// queueCap procs (<= 0: effectively unbounded).
func NewSched(queueCap int) *Sched {
	if queueCap <= 0 {
		queueCap = 1 << 30
	}
	// ^0 is not a valid arrival seq, so a deferred first arrival (seq 0)
	// still counts.
	return &Sched{queueCap: queueCap, lastDeferred: ^uint64(0)}
}

// Spawn adds a proc. pin >= 0 pins it to that core ID; pin < 0 lets any
// worker run it. Procs spawned before Run are ready at virtual time zero;
// procs spawned mid-run (by arrival handlers or by other procs) should use
// SpawnAt with the spawner's virtual present instead. Spawned procs bypass
// the admission cap — the cap gates arrival folds, not running work's
// children; size the cap to include the threads each arrival spawns.
func (s *Sched) Spawn(pin int, body func(*Ctx)) *Proc {
	return s.spawn(pin, 0, body)
}

// SpawnAt is Spawn for mid-run callers: the proc becomes runnable no
// earlier than virtual time notBefore — a forked thread cannot run before
// the fork that created it returned, even on a worker core whose own clock
// still lags the fork. The dispatching worker advances to notBefore
// exactly as it advances to a previously-run proc's last clock.
func (s *Sched) SpawnAt(pin int, notBefore uint64, body func(*Ctx)) *Proc {
	return s.spawn(pin, notBefore, body)
}

func (s *Sched) spawn(pin int, notBefore uint64, body func(*Ctx)) *Proc {
	s.mu.Lock()
	p := &Proc{
		seq:       s.seq,
		pin:       pin,
		body:      body,
		resume:    make(chan *CPU),
		yield:     make(chan int8),
		lastCore:  -1,
		lastClock: notBefore,
	}
	s.seq++
	s.procs = append(s.procs, p)
	s.remaining++
	if pin >= 0 {
		s.ensurePin(pin)
		s.pinned[pin]++
	} else {
		s.migratable++
	}
	s.enqueueLocked(p)
	s.mu.Unlock()
	return p
}

// Arrive registers a spawn request at virtual time stamp. fn runs on the
// first worker core whose clock reaches the stamp (subject to run-queue
// admission), with the arrival's seq — the fork-handler hook.
func (s *Sched) Arrive(stamp uint64, fn func(c *CPU, seq uint64)) {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		panic("hw: Sched.Arrive after Run started")
	}
	s.arrivals = append(s.arrivals, arrival{stamp: stamp, seq: s.seq, fn: fn})
	s.seq++
	s.mu.Unlock()
}

// Proc returns the proc with the given arrival seq, or nil. Procs spawned
// before any Arrive call have seq equal to their spawn order.
func (s *Sched) Proc(seq uint64) *Proc {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.procs), func(i int) bool { return s.procs[i].seq >= seq })
	if i < len(s.procs) && s.procs[i].seq == seq {
		return s.procs[i]
	}
	return nil
}

// Wake makes a parked proc runnable again (or arms the pending-wakeup
// flag if it has not parked yet). Call only from a running proc or an
// arrival handler — i.e. from on-schedule code.
func (s *Sched) Wake(p *Proc) {
	s.mu.Lock()
	switch p.state {
	case procParked:
		s.enqueueLocked(p)
	case procReady, procRunning:
		p.wakePending = true
	}
	s.mu.Unlock()
}

func (s *Sched) ensurePin(pin int) {
	for len(s.pinq) <= pin {
		s.pinq = append(s.pinq, nil)
	}
	for len(s.pinned) <= pin {
		s.pinned = append(s.pinned, 0)
	}
}

// enqueueLocked marks p ready, inserts it seq-ordered into its queue, and
// wakes an idle worker that can run it. Callers hold s.mu.
func (s *Sched) enqueueLocked(p *Proc) {
	p.state = procReady
	s.ready++
	if s.ready > s.runqHigh {
		s.runqHigh = s.ready
	}
	if p.pin >= 0 {
		s.ensurePin(p.pin)
		s.pinq[p.pin] = insertBySeq(s.pinq[p.pin], p)
		if s.g != nil { // nil until Run starts
			s.g.det.wakeIdleCore(p.pin)
		}
	} else {
		s.runq = insertBySeq(s.runq, p)
		if s.g != nil { // nil until Run starts
			s.g.det.wakeIdleOne()
		}
	}
}

func insertBySeq(q []*Proc, p *Proc) []*Proc {
	i := sort.Search(len(q), func(i int) bool { return q[i].seq > p.seq })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = p
	return q
}

// pickLocked pops the lowest-seq runnable proc for worker id: its pinned
// queue first, then the migratable queue. Callers hold s.mu.
func (s *Sched) pickLocked(id int) *Proc {
	if id < len(s.pinq) && len(s.pinq[id]) > 0 {
		p := s.pinq[id][0]
		s.pinq[id] = popFront(s.pinq[id])
		s.ready--
		return p
	}
	if len(s.runq) > 0 {
		p := s.runq[0]
		s.runq = popFront(s.runq)
		s.ready--
		return p
	}
	return nil
}

func popFront(q []*Proc) []*Proc {
	copy(q, q[1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

// Run executes the scheduled machine on cores [0, ncores) of m under the
// deterministic gang and returns when every proc has finished and every
// arrival has been folded. A Sched runs once; build a fresh one per run.
func (s *Sched) Run(m *Machine, ncores int) {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		panic("hw: Sched.Run called twice")
	}
	for i := ncores; i < len(s.pinned); i++ {
		if s.pinned[i] > 0 {
			s.mu.Unlock()
			panic(fmt.Sprintf("hw: proc pinned to core %d but Run has only %d cores", i, ncores))
		}
	}
	sort.SliceStable(s.arrivals, func(i, j int) bool {
		return s.arrivals[i].stamp < s.arrivals[j].stamp
	})
	s.running = true
	s.ncores = ncores
	s.active = ncores
	g := &Gang{det: newDetSched(m, ncores)}
	s.g = g
	s.mu.Unlock()
	runDet(g, m, ncores, func(c *CPU, g *Gang) { s.worker(c, g) })
}

// worker is one gang member's dispatch loop: pull the next runnable proc,
// lend it the CPU until it yields, account the yield, sync the gang,
// repeat. The Sync after every yield is the det-schedule hand-off point —
// it lands at exactly the virtual instants the pre-scheduler bodies
// synced at, because procs yield where those bodies called g.Sync.
func (s *Sched) worker(c *CPU, g *Gang) {
	var last *Proc
	for {
		p := s.next(c, g)
		if p == nil {
			return
		}
		if p.lastClock > c.Now() {
			c.AdvanceTo(p.lastClock)
		}
		s.mu.Lock()
		s.dispatches++
		if last != nil && p != last {
			s.switches++
		}
		s.mu.Unlock()
		if last != nil && p != last && s.SwitchCost > 0 {
			c.Tick(s.SwitchCost)
		}
		if !p.started {
			p.started = true
			p.ctx = Ctx{s: s, p: p}
			go func(p *Proc) {
				p.ctx.c = <-p.resume
				p.body(&p.ctx)
				p.yield <- yieldDone
			}(p)
		}
		p.resume <- c
		k := <-p.yield
		p.lastClock = c.Now()
		p.lastCore = c.ID()
		last = p
		s.afterYield(p, k)
		g.Sync(c)
	}
}

// afterYield updates proc and fleet accounting for one yield.
func (s *Sched) afterYield(p *Proc, k int8) {
	s.mu.Lock()
	switch k {
	case yieldDone:
		p.state = procDone
		s.remaining--
		if p.pin >= 0 {
			s.pinned[p.pin]--
		} else {
			s.migratable--
		}
		if s.remaining == 0 && s.nextArrival >= len(s.arrivals) {
			// Global termination: wake every idle worker so it can exit.
			s.g.det.wakeIdleAll()
		}
	case yieldPark:
		if p.wakePending {
			p.wakePending = false
			s.enqueueLocked(p)
		} else {
			p.state = procParked
		}
	default:
		s.enqueueLocked(p)
	}
	s.mu.Unlock()
}

// next returns the next proc for worker c, folding due arrivals, parking
// idle, or advancing virtual time to the next arrival as needed. Returns
// nil when the whole fleet is done.
func (s *Sched) next(c *CPU, g *Gang) *Proc {
	id := c.ID()
	for {
		now := c.Now()
		s.mu.Lock()
		// Fold due arrivals first: a spawn request whose stamp has passed
		// enters through whichever worker crosses it, queue permitting.
		if s.nextArrival < len(s.arrivals) {
			a := s.arrivals[s.nextArrival]
			if a.stamp <= now {
				if s.ready < s.queueCap {
					s.nextArrival++
					s.mu.Unlock()
					a.fn(c, a.seq)
					continue
				}
				if s.lastDeferred != a.seq {
					s.lastDeferred = a.seq
					s.deferred++
				}
			}
		}
		if p := s.pickLocked(id); p != nil {
			p.state = procRunning
			s.mu.Unlock()
			return p
		}
		if s.remaining == 0 && s.nextArrival >= len(s.arrivals) {
			s.g.det.wakeIdleAll()
			s.mu.Unlock()
			return nil
		}
		if s.nextArrival < len(s.arrivals) && s.ready < s.queueCap {
			// Nothing runnable here, a future arrival pending, and the
			// backlog has room: this worker is a halted CPU sleeping until
			// the next event, so its clock jumps to the arrival stamp and
			// the fold happens here. Idle (lowest-clock) workers get the
			// det token first, so arrival folding lands on idle cores
			// before busy ones and spreads the fleet across the machine.
			stamp := s.arrivals[s.nextArrival].stamp
			s.mu.Unlock()
			c.AdvanceTo(stamp)
			continue
		}
		if s.nextArrival >= len(s.arrivals) && s.active == 1 {
			s.mu.Unlock()
			panic("hw: scheduler deadlock: procs parked with no runnable waker")
		}
		// Nothing runnable here and others are still active: park idle
		// through the det token machinery, clock frozen, until an enqueue
		// or termination wakes us. The det schedule serializes execution,
		// so no wake can slip in between releasing s.mu and parking.
		s.active--
		s.mu.Unlock()
		g.det.parkIdle(c)
		s.mu.Lock()
		s.active++
		s.mu.Unlock()
	}
}

// RunQueueHighWater reports the deepest the ready backlog got (migratable
// run queue plus all pinned queues).
func (s *Sched) RunQueueHighWater() int { return s.runqHigh }

// Dispatches reports the total number of proc dispatches.
func (s *Sched) Dispatches() uint64 { return s.dispatches }

// Switches reports dispatches that changed procs on a worker.
func (s *Sched) Switches() uint64 { return s.switches }

// DeferredArrivals reports arrivals whose fold the admission cap delayed.
func (s *Sched) DeferredArrivals() uint64 { return s.deferred }
