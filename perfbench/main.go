// Command perfbench is the repository's host-cost benchmark: how many
// application accesses the simulator and the live driver complete per
// second of host CPU time, explained by host CPU time per repo layer.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics of an untraced run; with --trace 1 it carries
// the per-layer metrics of a traced run (CPU profile, observer counters,
// timed backend calls). Every metric is also printed by name with its
// unit on the lines before. See README.md for the metric → layer →
// workload map.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bench is one benchmark workload: an input set and how to run it.
type bench struct {
	name string
	why  string
	run  func(cfg config, r *result) error
}

var benches = []bench{
	{"fig9-contention", "the most contended paper figure: page-cache LRU and proc hand-off dominate host time", runFig9},
	{"fig5-records", "per-request overhead with no pfs, netsim or page cache; a page-cache change must not move it", runFig5},
	{"fig11-sharded", "the only sharded-engine and MPI-IO workload: stripe fan-out over 8 servers, conservative windows and mail", runFig11},
	{"livemem-rw", "the only workload that bypasses the simulator: memfs reads and writes through live.Run", runLiveMem},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	probe   *prober
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result collects a run's metrics and the outcome of its output checks.
type result struct {
	metrics   []metric
	attempted int64 // accesses attempted in the timed phase
	failed    int64 // failed accesses plus failed output checks
	problems  []string
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// check records a failed output check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd and perLayer are the metrics the JSON line carries with
// --trace 0 and --trace 1; BENCHMARK.json lists the same names and units
// (pinned by a test). Other printed metrics are informational.
var endToEnd = []metric{
	{name: "req_per_ref_s", unit: "1/s"},
	{name: "setup_s", unit: "s"},
	{name: "alloc_b_per_req", unit: "B"},
}

var perLayer = func() []metric {
	var m []metric
	for _, l := range cpuLayers {
		m = append(m, metric{name: l + ".cpu_ms", unit: "ms/pass"})
	}
	m = append(m,
		metric{name: "runtime.gc_ms", unit: "ms/pass"},
		metric{name: "runtime.other_ms", unit: "ms/pass"},
		metric{name: "profile.samples", unit: "count"},
		metric{name: "tracing.overhead", unit: "ratio"},
		metric{name: "core.overlap_ns_per_rec", unit: "ns"},
		metric{name: "backend.read_us.p50", unit: "us"},
		metric{name: "backend.read_us.p99", unit: "us"},
		metric{name: "backend.write_us.p50", unit: "us"},
		metric{name: "backend.write_us.p99", unit: "us"},
		metric{name: "backend.ops", unit: "count/pass"},
		metric{name: "live.layout_s", unit: "s"},
		metric{name: "sim.events", unit: "count/pass"},
		metric{name: "sim.procs", unit: "count/pass"},
		metric{name: "sim.events_per_req", unit: "ratio"},
		metric{name: "sim.events_per_s", unit: "1/s"},
		metric{name: "sim.dispatch_ns", unit: "ns"},
		metric{name: "sim.switch_ns", unit: "ns"},
		metric{name: "sim.ceiling_events_per_s", unit: "1/s"},
		metric{name: "sim.host_headroom", unit: "ratio"},
		metric{name: "device.ops", unit: "count/pass"},
		metric{name: "device.busy_s", unit: "s"},
		metric{name: "netsim.transfers", unit: "count/pass"},
		metric{name: "netsim.bytes", unit: "B/pass"},
		metric{name: "fsim.cache_hits", unit: "count/pass"},
		metric{name: "pfs.server_requests", unit: "count/pass"},
		metric{name: "pfs.mds_ops", unit: "count/pass"},
		metric{name: "pfs.retries", unit: "count/pass"},
		metric{name: "middleware.moved_over_required", unit: "ratio"},
	)
	for _, l := range blameLayers {
		m = append(m, metric{name: "blame." + l + "_pct", unit: "%"})
	}
	return append(m,
		metric{name: "runtime.gc_cycles", unit: "count/pass"},
		metric{name: "runtime.peak_rss_mb", unit: "MiB"},
	)
}()

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	)
	flag.Parse()
	var w *bench
	for i := range benches {
		if benches[i].name == *name {
			w = &benches[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		var names []string
		for _, w := range benches {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	probe, err := newProber()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, probe: probe}

	printHost(cfg, *w)
	var r result
	if err := w.run(cfg, &r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	r.add("error_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	for _, p := range r.problems {
		fmt.Printf("# check failed: %s\n", p)
	}
	for _, m := range r.metrics {
		fmt.Printf("%-32s %-16.6g %s\n", m.name, m.value, m.unit)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	line, err := jsonLine(r, want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(line)
	if r.failed > 0 {
		return 1
	}
	return 0
}

// jsonLine renders the result line with exactly the wanted metrics.
func jsonLine(r result, want []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	got := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		got[m.name] = m
	}
	out := make(map[string]value, len(want))
	for _, w := range want {
		m, ok := got[w.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", w.name)
		}
		if m.unit != w.unit || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s = %v %s, want a finite value in %s", m.name, m.value, m.unit, w.unit)
		}
		out[w.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	return string(b), err
}

// printHost prints the host fingerprint, the seed and why the workload
// was chosen, so every result carries what produced it.
func printHost(cfg config, w bench) {
	fmt.Printf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%t\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# why: %s\n", w.why)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB reads the process's peak resident set from /proc/self/status.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// setupSamples is how many set-up samples a run takes; setup_s is their
// median.
const setupSamples = 9

// pass is one timed repetition of a workload.
type pass struct {
	wall     time.Duration
	cpu      time.Duration
	probe    time.Duration // probe reading taken right before the pass
	accesses int64
	allocB   uint64
	gcCycles uint32
}

// timedPhase repeats run for at least seconds of wall time (and at least
// once), timing each call. prepare runs before each call, untimed; a full
// GC before each call keeps heap state the same at every start, and a
// probe reading follows it.
func timedPhase(p *prober, seconds float64, prepare func() error, run func() (int64, error)) ([]pass, error) {
	var out []pass
	start := time.Now()
	for len(out) == 0 || time.Since(start).Seconds() < seconds {
		if prepare != nil {
			if err := prepare(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		probe := p.measure()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0, c0 := time.Now(), cpuTime()
		n, err := run()
		wall, cpu := time.Since(t0), cpuTime()-c0
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		out = append(out, pass{
			wall:     wall,
			cpu:      cpu,
			probe:    probe,
			accesses: n,
			allocB:   m1.TotalAlloc - m0.TotalAlloc,
			gcCycles: m1.NumGC - m0.NumGC,
		})
	}
	return out, nil
}

// tracedPhase alternates an untraced pass with a traced one until
// seconds have passed, and runs at least one of each. untraced times
// itself. prepare runs before each traced pass, untimed and unprofiled.
// traced runs under the CPU profiler and is timed here. Alternating the
// two keeps host drift out of the overhead: the median traced wall over
// the median untraced wall.
func tracedPhase(seconds float64, untraced func() (time.Duration, error), prepare, traced func() error) ([]sample, float64, error) {
	var samples []sample
	var plain, slow []float64
	start := time.Now()
	for len(slow) == 0 || time.Since(start).Seconds() < seconds {
		d, err := untraced()
		if err != nil {
			return nil, 0, err
		}
		plain = append(plain, d.Seconds())
		if prepare != nil {
			if err := prepare(); err != nil {
				return nil, 0, err
			}
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		err = traced()
		slow = append(slow, time.Since(t0).Seconds())
		pprof.StopCPUProfile()
		if err != nil {
			return nil, 0, err
		}
		s, err := decodeProfile(buf.Bytes())
		if err != nil {
			return nil, 0, err
		}
		samples = append(samples, s...)
	}
	return samples, median(slow) / median(plain), nil
}

// addEndToEnd reports the set-up and the timed passes. The gated rate
// is per reference second of CPU time (see refProbe). CPU time leaves out
// what the hypervisor steals from a virtual CPU, and the probe corrects
// for the host running slower or faster than usual. The per CPU second
// and per wall second rates, the heap allocated in the whole timed phase,
// the probe and the stolen share of host CPU are reported beside it.
func addEndToEnd(r *result, setups []float64, passes []pass, stealPct float64) {
	var allocB uint64
	for _, p := range passes {
		r.attempted += p.accesses
		allocB += p.allocB
	}
	r.add("req_per_ref_s", medianOf(passes, func(p pass) float64 { return float64(p.accesses) / refSeconds(p.cpu, p.probe) }), "1/s")
	r.add("setup_s", median(setups), "s")
	r.add("alloc_b_per_req", medianOf(passes, func(p pass) float64 { return float64(p.allocB) / float64(p.accesses) }), "B")
	r.add("req_per_cpu_s", medianOf(passes, func(p pass) float64 { return float64(p.accesses) / p.cpu.Seconds() }), "1/s")
	r.add("req_per_s", medianOf(passes, func(p pass) float64 { return float64(p.accesses) / p.wall.Seconds() }), "1/s")
	r.add("alloc_mb", float64(allocB)/(1<<20), "MiB")
	r.add("host.probe_ms", medianOf(passes, func(p pass) float64 { return float64(p.probe.Microseconds()) / 1e3 }), "ms")
	r.add("host.steal_pct", stealPct, "%")
	r.add("passes", float64(len(passes)), "count")
}

// addCPU reports the profile's CPU time per layer and pass and checks
// that the buckets account for every sample.
func addCPU(r *result, samples []sample, passes int) {
	buckets, total := bucketize(samples)
	var sum int64
	perPass := func(ns int64) float64 { return float64(ns) / float64(passes) / 1e6 }
	for _, l := range cpuLayers {
		r.add(l+".cpu_ms", perPass(buckets[l]), "ms/pass")
		sum += buckets[l]
	}
	r.add("runtime.gc_ms", perPass(buckets[bucketGC]), "ms/pass")
	r.add("runtime.other_ms", perPass(buckets[bucketRuntime]), "ms/pass")
	sum += buckets[bucketGC] + buckets[bucketRuntime]
	r.add("profile.samples", float64(ticks(samples)), "count")
	r.add("profile.cpu_ms", perPass(total), "ms/pass")
	r.check(sum == total, "profile buckets sum to %d ns of %d ns", sum, total)
}

// addRuntime reports GC cycles per untraced pass and the peak RSS.
func addRuntime(r *result, passes []pass) {
	r.add("runtime.gc_cycles", medianOf(passes, func(p pass) float64 { return float64(p.gcCycles) }), "count/pass")
	r.add("runtime.peak_rss_mb", peakRSSMiB(), "MiB")
}

// zero reports the named per-layer metrics as 0: the workload's
// path never reaches their layer.
func zero(r *result, names ...string) {
	for _, n := range names {
		for _, m := range perLayer {
			if m.name == n {
				r.add(n, 0, m.unit)
			}
		}
	}
}

// cpuTime returns the CPU time the process has used, over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid who
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the host CPU ticks stolen by the hypervisor and all
// ticks so far from /proc/stat; both are 0 where it is unavailable.
func stealTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealSince returns the percentage of host CPU ticks stolen since a
// stealTicks reading.
func stealSince(steal0, total0 int64) float64 {
	steal, total := stealTicks()
	if total <= total0 {
		return 0
	}
	return 100 * float64(steal-steal0) / float64(total-total0)
}

// untracedWall is the median wall time of the timed passes, the base of
// host rates derived from traced counts.
func untracedWall(passes []pass) float64 {
	return medianOf(passes, func(p pass) float64 { return p.wall.Seconds() })
}

// medianOf returns the median of f over the passes.
func medianOf(passes []pass, f func(pass) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// median returns the middle value of xs (the mean of the middle two for
// an even count), or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeSetup takes setupSamples samples of the set-up's CPU time, in
// reference seconds. Each sample is the mean over perSample consecutive
// set-ups, which smooths out the timer and allocator noise of set-ups
// shorter than a millisecond.
func timeSetup(p *prober, perSample int, setup func() error) ([]float64, error) {
	out := make([]float64, 0, setupSamples)
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		probe := p.measure()
		c0 := cpuTime()
		for j := 0; j < perSample; j++ {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		out = append(out, refSeconds(cpuTime()-c0, probe)/float64(perSample))
	}
	return out, nil
}
