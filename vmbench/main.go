// Command vmbench is the repository's benchmark. It runs one named
// workload (vmops64, fleet or filemap) on all three VM systems for a fixed
// host-time budget and prints every metric by name and unit, ending with
// one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones: host time, memory and
// set-up time of the simulator, and the model's virtual-time throughput.
// With -trace 1 they are the per-layer ones, taken from spans recorded
// around every vm.System call, a CPU profile and the runtime's GC counters.
//
// Run it through run.sh, which builds it from source; see METRICS.md for
// what each metric means and which layer should move it.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// processStart approximates process start: package variables initialize
// before main runs, after the Go runtime itself has started.
var processStart = time.Now()

// cyclesPerSec is the modeled clock rate every workload converts virtual
// cycles with.
const cyclesPerSec = 2.4e9

// setupProbes is the number of extra processes a -trace 0 run starts to
// time set-up again; setup_s is the median of them and the run itself.
const setupProbes = 2

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: vmops64, fleet or filemap")
		seed    = flag.Int64("seed", 1, "arrival-PRNG seed of the fleet and filemap workloads")
		seconds = flag.Float64("seconds", 10, "host seconds of timed passes")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_build/vmbench", "directory the traced run writes its spans to")
		probe   = flag.Bool("setup-probe", false, "time set-up only and print it with the pass digest (used by the benchmark itself)")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "vmbench: need -workload vmops64|fleet|filemap, -trace 0|1 and -seconds > 0\n")
		os.Exit(2)
	}
	// The det schedule runs one simulated core at a time, so one host
	// thread suffices; with one, GC work lands inside the pass that caused
	// it instead of racing it on a second core.
	runtime.GOMAXPROCS(1)

	r := &run{w: w, seed: *seed}
	warm := r.pass(nil)
	setup := time.Since(processStart).Seconds()
	if *probe {
		fmt.Printf("probe %v %d\n", setup, warm.digest())
		return
	}
	r.ref = warm
	var res result
	if *trace == 0 {
		res = r.endToEnd(setup, *seconds)
	} else {
		res = r.perLayer(*seconds, *out)
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	for _, e := range r.errs {
		fmt.Printf("FAIL %s\n", e)
	}
	fmt.Printf("fail_frac %v (%d of %d cells)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run holds one benchmark process's passes and its correctness tally.
type run struct {
	w         workloadDef
	seed      int64
	ref       passResult // the warm-up pass every later pass must repeat
	attempted int
	failed    int
	errs      []string
}

// passResult is one pass over every cell of the workload.
type passResult struct {
	hostNS   int64
	sysNS    [numSystems]int64
	alloc    float64 // heap bytes allocated
	gcCycles float64
	gcCPU    float64 // seconds
	cells    []cellResult
}

func (p passResult) digest() uint64 {
	h := newDigest()
	for _, c := range p.cells {
		h.add(c.digest)
	}
	return h.sum()
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var v [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return v
}

// pass runs every cell once: systems in a fixed order, each system's
// sub-loops in order. It checks each cell against the warm-up pass, once
// that exists.
func (r *run) pass(t *tracer) passResult {
	var p passResult
	rt0 := readRuntime()
	t0 := time.Now()
	for s := range systems {
		for _, l := range r.w.loops {
			c0 := time.Now()
			c := runCell(r.w, l, s, r.seed, t)
			c.hostNS = int64(time.Since(c0))
			p.sysNS[s] += c.hostNS
			p.cells = append(p.cells, c)
		}
	}
	p.hostNS = int64(time.Since(t0))
	rt1 := readRuntime()
	p.alloc, p.gcCycles, p.gcCPU = rt1[0]-rt0[0], rt1[1]-rt0[1], rt1[2]-rt0[2]
	for i, c := range p.cells {
		r.attempted++
		where := fmt.Sprintf("%s/%s", systems[c.sys].name, c.loop)
		switch {
		case c.err != nil:
			r.fail(c.err.Error())
		case r.ref.cells != nil && c.digest != r.ref.cells[i].digest:
			r.fail(fmt.Sprintf("%s: simulated result differs from the warm-up pass (traced: %v)", where, t != nil))
		}
	}
	return p
}

func (r *run) fail(msg string) {
	r.failed++
	r.errs = append(r.errs, msg)
}

// timed runs untraced passes until the budget is spent, at least three.
func (r *run) timed(seconds float64) []passResult {
	var ps []passResult
	start := time.Now()
	for len(ps) < 3 || time.Since(start).Seconds() < seconds {
		ps = append(ps, r.pass(nil))
	}
	return ps
}

func (r *run) endToEnd(setup, seconds float64) result {
	setups := []float64{setup}
	for i := 0; i < setupProbes; i++ {
		s, err := r.probe()
		r.attempted += len(r.ref.cells)
		if err != nil {
			r.failed += len(r.ref.cells)
			r.errs = append(r.errs, err.Error())
			continue
		}
		setups = append(setups, s)
	}
	ps := r.timed(seconds)
	var rusage syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &rusage); err != nil {
		r.fail(fmt.Sprintf("getrusage: %v", err))
	}
	maxRSS := float64(rusage.Maxrss) / 1024 // Linux reports KiB

	// One traced pass: the decorator must leave every simulated result
	// unchanged, and its spans give the fork-to-first-touch latencies.
	t := newTracer()
	r.pass(t)
	lats := t.summarize().firstTouch[0]
	tail, p50, pct := tailOf(lats)
	fmt.Printf("radixvm fork-to-first-touch: p50 %d cycles, tail p%.1f %d cycles, %d samples\n", p50, pct, tail, len(lats))

	host := median(ps, func(p passResult) float64 { return float64(p.hostNS) / 1e9 })
	var ops uint64
	for _, c := range r.ref.cells {
		ops += c.out.simOps()
	}
	rate, adv := r.simRates()
	m := map[string]metric{
		"host_s":             {host, "s"},
		"host_s_radixvm":     {median(ps, func(p passResult) float64 { return float64(p.sysNS[0]) / 1e9 }), "s"},
		"host_ns_per_sim_op": {host * 1e9 / float64(ops), "ns"},
		"alloc_mb":           {median(ps, func(p passResult) float64 { return p.alloc / 1e6 }), "MB"},
		"max_rss_mb":         {maxRSS, "MB"},
		"setup_s":            {medianOf(setups), "s"},
		"sim_rate_radixvm":   {rate, "1/s"},
		"sim_advantage":      {adv, "x"},
		// A latency of 0 cannot occur: a fork and an access each take
		// cycles.
		"sim_first_touch_tail_kcycles": {float64(tail) / 1e3, "Kcycles"},
	}
	fmt.Printf("%d timed passes, %d simulated ops per pass; pass host_s:", len(ps), ops)
	for _, p := range ps {
		fmt.Printf(" %.3f", float64(p.hostNS)/1e9)
	}
	fmt.Println()
	return result{Metrics: m}
}

// probe starts this program again to time its set-up, and checks that the
// new process simulates exactly what this one did.
func (r *run) probe() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %v", err)
	}
	cmd := exec.Command(exe, "-workload", r.w.name, "-seed", strconv.FormatInt(r.seed, 10), "-setup-probe")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %v", err)
	}
	var setup float64
	var digest uint64
	if _, err := fmt.Sscanf(string(b), "probe %g %d", &setup, &digest); err != nil {
		return 0, fmt.Errorf("setup probe output %q: %v", b, err)
	}
	if digest != r.ref.digest() {
		return 0, fmt.Errorf("setup probe: another process simulated different results")
	}
	return setup, nil
}

// simRates returns radixvm's virtual throughput and its ratio to the best
// baseline's, each summed over the workload's sub-loops.
func (r *run) simRates() (rate, advantage float64) {
	var work, cycles [numSystems]float64
	for _, c := range r.ref.cells {
		work[c.sys] += float64(c.out.work)
		cycles[c.sys] += float64(c.out.res.Cycles)
	}
	var rates [numSystems]float64
	for i := range rates {
		rates[i] = work[i] * cyclesPerSec / cycles[i]
	}
	return rates[0], rates[0] / math.Max(rates[1], rates[2])
}

// perLayer alternates untraced passes, run under the CPU profiler, with
// traced passes, so that drift in the host's speed reaches both alike.
func (r *run) perLayer(seconds float64, out string) result {
	var (
		plain   []passResult
		traced  []float64
		last    layerStats
		hostNS  [numSystems][numOps]float64
		outNS   [numSystems]float64
		t       *tracer
		samples = map[string]int64{}
	)
	start := time.Now()
	for len(traced) < 2 || time.Since(start).Seconds() < seconds {
		if err := profilePass(samples, func() { plain = append(plain, r.pass(nil)) }); err != nil {
			r.fail(fmt.Sprintf("cpu profile: %v", err))
		}
		t = newTracer()
		p := r.pass(t)
		ls := t.summarize()
		if len(traced) > 0 && ls.digest != last.digest {
			r.fail("traced passes recorded different spans in virtual time")
		}
		traced = append(traced, float64(p.hostNS)/1e9)
		for s := range ls.ops {
			for op := range ls.ops[s] {
				hostNS[s][op] += float64(ls.ops[s][op].hostNS)
			}
			outNS[s] += float64(ls.outsideNS[s])
		}
		last = ls
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		r.fail(fmt.Sprintf("span output: %v", err))
	} else {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.csv", r.w.name, r.seed))
		if err := t.writeSpans(path); err != nil {
			r.fail(fmt.Sprintf("span output: %v", err))
		} else {
			fmt.Printf("spans of the last traced pass: %s\n", path)
		}
	}

	n := float64(len(traced))
	m := map[string]metric{}
	for s, sys := range systems {
		for op, o := range last.ops[s] {
			if !layerOp(s, op) {
				continue
			}
			base := sys.module + "." + opNames[op]
			m[base+".count"] = metric{float64(o.count), "count"}
			m[base+".host_s"] = metric{hostNS[s][op] / n / 1e9, "s"}
			if op != opHit {
				m[base+".vcycles_p50"] = metric{float64(o.p50), "cycles"}
				m[base+".vcycles_p99"] = metric{float64(o.p99), "cycles"}
			}
		}
		m[sys.module+".outside.host_s"] = metric{outNS[s] / n / 1e9, "s"}
	}
	r.addCounters(m)
	for mod, share := range shares(samples) {
		m["prof."+mod] = metric{100 * share, "%"}
	}
	m["runtime.gc_cycles"] = metric{mean(plain, func(p passResult) float64 { return p.gcCycles }), "count"}
	m["runtime.gc_cpu_s"] = metric{mean(plain, func(p passResult) float64 { return p.gcCPU }), "s"}
	untraced := median(plain, func(p passResult) float64 { return float64(p.hostNS) / 1e9 })
	m["trace.overhead_s"] = metric{medianOf(traced) - untraced, "s"}
	fmt.Printf("%d untraced (profiled) and %d traced passes, %d spans per traced pass\n", len(plain), len(traced), len(t.spans))
	return result{Metrics: m}
}

// layerOp reports whether system s can record op: only radixvm has a
// whole-space Exit; the baselines tear children down by unmapping.
func layerOp(s, op int) bool { return op != opExit || s == 0 }

// addCounters adds the virtual counts of the warm-up pass, which every
// later pass repeats exactly.
func (r *run) addCounters(m map[string]metric) {
	var (
		transfers, ipis, zeroed, mbox [numSystems]uint64
		perWB                         [numSystems]float64
		fills, deferred, reviews      uint64
		evicts                        uint64
		runq, reviewQ                 int
	)
	for _, c := range r.ref.cells {
		st := c.out.res.Stats
		transfers[c.sys] += st.Transfers
		ipis[c.sys] += st.IPIsSent
		zeroed[c.sys] += st.PagesZeroed
		mbox[c.sys] = max(mbox[c.sys], st.IPIMboxMax)
		perWB[c.sys] += c.out.ipisPerWB
		fills += c.out.fills
		deferred += c.out.deferred
		reviews += c.out.reviews
		evicts += st.RefcacheEvicts
		runq = max(runq, c.out.runqHigh)
		reviewQ = max(reviewQ, c.out.reviewQ)
	}
	for s, sys := range systems {
		p := "hw." + sys.name + "."
		m[p+"transfers"] = metric{float64(transfers[s]), "count"}
		m[p+"ipis"] = metric{float64(ipis[s]), "count"}
		m[p+"mbox_depth_max"] = metric{float64(mbox[s]), "count"}
		m[p+"pages_zeroed"] = metric{float64(zeroed[s]), "count"}
		m[p+"ipis_per_writeback"] = metric{perWB[s], "IPIs/wb"}
	}
	m["mem.pagecache.fills"] = metric{float64(fills), "count"}
	m["hw.sched.runq_high"] = metric{float64(runq), "count"}
	m["hw.sched.deferred"] = metric{float64(deferred), "count"}
	m["refcache.reviews"] = metric{float64(reviews), "count"}
	m["refcache.review_q_high"] = metric{float64(reviewQ), "count"}
	m["refcache.evicts"] = metric{float64(evicts), "count"}
}

// tailOf returns the highest-percentile value with at least ten samples
// beyond it (the maximum when there are fewer than eleven), the median,
// and the percentile the tail value sits at.
func tailOf(v []uint64) (tail, p50 uint64, pct float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]uint64(nil), v...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := max(len(s)-11, 0)
	if len(s) < 11 {
		i = len(s) - 1
	}
	return s[i], s[len(s)/2], 100 * float64(i+1) / float64(len(s))
}

func median(ps []passResult, f func(passResult) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(ps []passResult, f func(passResult) float64) float64 {
	var sum float64
	for _, p := range ps {
		sum += f(p)
	}
	return sum / float64(len(ps))
}

// digest is a 64-bit FNV-1a hash over values fed to it in order.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) add(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digest) addString(s string) { d.h.Write([]byte(s)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }
