package main

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"bps/internal/core"
	"bps/internal/experiments"
	"bps/internal/obs"
	"bps/internal/obs/attrib"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/workload"
)

// simSpec is one paper-figure sweep run through experiments.NewSuite.
// points mirrors the sweep's definition in internal/experiments so the
// verification and traced passes can reach each point's records, engine
// and stack; every mirrored point must reproduce the suite's metrics
// exactly, which the benchmark checks.
type simSpec struct {
	figure  string  // suite figure ID
	sweepID string  // the sweep's seed-derivation ID
	scale   float64 // nominal experiments.Params.Scale
	shards  int     // 0 = classic engine
	points  func(scale float64) []simPoint
}

// simPoint is one mirrored sweep point.
type simPoint struct {
	label string
	load  workload.SeqRead
	build func(e *sim.Engine) (workload.Env, error)
}

// simSetupsPerSample is how many set-ups one set-up sample averages. A
// simulated workload's set-up takes well under a millisecond, and on a
// shared host timings that short vary by tens of percent.
const simSetupsPerSample = 200

func runFig9(cfg config, r *result) error {
	return runSim(simSpec{figure: "fig9", sweepID: "set3a", scale: 1.0 / 64, points: fig9Points}, cfg, r)
}

func runFig5(cfg config, r *result) error {
	return runSim(simSpec{figure: "fig5", sweepID: "set2-hdd", scale: 1.0 / 8, points: fig5Points}, cfg, r)
}

func runFig11(cfg config, r *result) error {
	return runSim(simSpec{figure: "fig11", sweepID: "set3b", scale: 1.0 / 64, shards: 2, points: fig11Points}, cfg, r)
}

// Paper data volumes, as in internal/experiments.
const (
	set2FileBytes  = 16 << 30
	set3TotalBytes = 32 << 30
)

// fig9Points mirrors experiments' set3a: 1–8 processes, each reading its
// own file pinned to one of 8 HDD servers in 64 KB records.
func fig9Points(scale float64) []simPoint {
	const record = 64 << 10
	procsList := []int{1, 2, 3, 4, 5, 6, 7, 8}
	total := scaled(scale, set3TotalBytes, record*int64(len(procsList)))
	var pts []simPoint
	for _, procs := range procsList {
		procs := procs
		perProc := roundTo(total/int64(procs), record)
		pts = append(pts, simPoint{
			label: fmt.Sprintf("%dp", procs),
			load:  workload.SeqRead{Label: "iozone-tp", Processes: procs, BytesPerProcess: perProc, RecordSize: record},
			build: func(e *sim.Engine) (workload.Env, error) {
				return testbed.NewPinnedFilesEnv(e, testbed.ClusterSpec{Servers: 8, Media: testbed.HDD, Clients: procs}, perProc)
			},
		})
	}
	return pts
}

// fig5Points mirrors experiments' set2 on HDD: one process reads a local
// file sequentially in records of 4 KB to 8 MB.
func fig5Points(scale float64) []simPoint {
	var pts []simPoint
	for _, record := range []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 8 << 20} {
		fileSize := scaled(scale, set2FileBytes, record)
		label := fmt.Sprintf("%dKB", record>>10)
		if record >= 1<<20 {
			label = fmt.Sprintf("%dMB", record>>20)
		}
		pts = append(pts, simPoint{
			label: label,
			load:  workload.SeqRead{Label: "iozone-sizes", Processes: 1, BytesPerProcess: fileSize, RecordSize: record},
			build: func(e *sim.Engine) (workload.Env, error) {
				return testbed.NewLocalEnv(e, testbed.HDD, 1, fileSize)
			},
		})
	}
	return pts
}

// fig11Points mirrors experiments' set3b: IOR over MPI-IO, 1–32 processes
// each reading its own segment of one file striped over 8 HDD servers.
func fig11Points(scale float64) []simPoint {
	const transfer = 64 << 10
	procsList := []int{1, 2, 4, 8, 16, 32}
	fileSize := scaled(scale, set3TotalBytes, transfer*int64(procsList[len(procsList)-1]))
	var pts []simPoint
	for _, procs := range procsList {
		procs := procs
		segment := roundTo(fileSize/int64(procs), transfer)
		pts = append(pts, simPoint{
			label: fmt.Sprintf("%dp", procs),
			load: workload.SeqRead{
				Label: "ior", Processes: procs, BytesPerProcess: segment, RecordSize: transfer,
				UseMPIIO: true, StartOffset: func(pid int) int64 { return int64(pid) * segment },
			},
			build: func(e *sim.Engine) (workload.Env, error) {
				return testbed.NewSharedFileEnv(e, testbed.ClusterSpec{Servers: 8, Media: testbed.HDD, Clients: procs}, fileSize)
			},
		})
	}
	return pts
}

// scaled and roundTo are experiments' volume rounding rules.
func scaled(scale float64, bytes, unit int64) int64 {
	v := int64(scale * float64(bytes))
	if v < unit {
		return unit
	}
	return (v + unit - 1) / unit * unit
}

func roundTo(v, unit int64) int64 {
	if v < unit {
		return unit
	}
	return v / unit * unit
}

// seededScale derives a sweep's data volume from the seed: the nominal
// scale moved by -2.0% to +2.0% in 0.1% steps, so consecutive seeds
// always differ. Figures 5 and 9 do not draw on the engine's random
// stream, so without this the seed would not change their inputs.
func seededScale(nominal float64, seed int64) float64 {
	j := seed % 41
	if j < 0 {
		j += 41
	}
	return nominal * (1 + float64(j-20)/1000)
}

// simCounts are one sweep's simulated statistics, summed over its points.
// They must repeat exactly for a seed.
type simCounts struct {
	accesses, blocks, moved   int64
	events, procs             int64
	deviceOps, deviceBusyNS   int64
	netTransfers, netBytes    int64
	cacheHits                 int64
	serverReqs, mdsOps, retry int64
	blame                     map[string]sim.Time
	blameTotal                sim.Time
}

// blameLayers are the attribution report's layers, as blame.<layer>_pct.
var blameLayers = append(append([]string(nil), attrib.StackOrder...), attrib.LayerClient)

// sweepRun is the outcome of one mirrored sweep.
type sweepRun struct {
	metrics []core.Metrics // per point
	bad     []string       // failed output checks
	counts  simCounts
	overlap time.Duration // time spent in core.OverlapTime on the records
	records int
}

// runSweep runs every mirrored point on a fresh engine seeded as the
// suite seeds it. A non-nil observe attaches the observer, whose
// registry supplies the per-layer counts and, with attribution on, the
// blame.
func runSweep(spec simSpec, scale float64, seed int64, observe *obs.Options) (sweepRun, error) {
	out := sweepRun{counts: simCounts{blame: make(map[string]sim.Time)}}
	for _, pt := range spec.points(scale) {
		if err := out.runPoint(spec, pt, seed, observe); err != nil {
			return sweepRun{}, fmt.Errorf("point %s: %w", pt.label, err)
		}
	}
	return out, nil
}

func (s *sweepRun) runPoint(spec simSpec, pt simPoint, seed int64, observe *obs.Options) error {
	e := sim.NewEngine(experiments.DeriveSeed(seed, spec.sweepID, pt.label))
	if spec.shards > 0 {
		e.EnableSharding(spec.shards)
	}
	var ob *obs.Observer
	if observe != nil {
		ob = obs.Attach(e, *observe)
	}
	env, err := pt.build(e)
	if err != nil {
		return err
	}
	res, err := pt.load.Run(e, env)
	if err != nil {
		return err
	}
	e.Shutdown()

	records := res.Trace.Records()
	t0 := time.Now()
	overlapT := core.OverlapTime(records)
	s.overlap += time.Since(t0)
	s.records += len(records)
	m := core.Compute(res.Trace, res.Moved, res.ExecTime)
	s.metrics = append(s.metrics, m)
	for _, bad := range checkPoint(m, records) {
		s.bad = append(s.bad, pt.label+": "+bad)
	}
	if overlapT != m.IOTime {
		s.bad = append(s.bad, fmt.Sprintf("%s: OverlapTime = %v but the metrics carry T = %v", pt.label, overlapT, m.IOTime))
	}

	c := &s.counts
	c.accesses += m.Ops
	c.blocks += m.Blocks
	c.moved += m.MovedBytes
	c.events += int64(e.Events())
	switch env := env.(type) {
	case *workload.LocalEnv:
		c.cacheHits += int64(env.FS.CacheHits())
	case *workload.ClusterEnv:
		for _, srv := range env.Cluster.Servers() {
			c.cacheHits += int64(srv.FS().CacheHits())
		}
	}
	if ob == nil {
		return nil
	}
	ob.FinishSampling()
	for _, rec := range records {
		ob.AddAppRecord(rec.PID, rec.Blocks, rec.Start, rec.End)
	}
	reg := ob.Registry()
	for _, ctr := range reg.Counters() {
		name, v := ctr.Name(), ctr.Value()
		switch {
		case name == "sim/engine/procs_started":
			c.procs += v
		case name == "net/fabric/transfers":
			c.netTransfers += v
		case name == "net/fabric/bytes":
			c.netBytes += v
		case name == "pfs/mds/ops":
			c.mdsOps += v
		case name == "pfs/client/retries":
			c.retry += v
		case strings.HasPrefix(name, "pfs/ios") && strings.HasSuffix(name, "/requests"):
			c.serverReqs += v
		}
	}
	for _, h := range reg.Histograms() {
		if name := h.Name(); strings.HasPrefix(name, "device/") && strings.HasSuffix(name, "/service_ns") {
			c.deviceOps += int64(h.Count())
			c.deviceBusyNS += h.Sum()
		}
	}
	if rep := ob.Attribution(); rep != nil {
		for _, l := range rep.Layers {
			c.blame[l.Layer] += l.Exclusive
		}
		c.blameTotal += rep.Total
		if sum := rep.ExclusiveSum(); sum != rep.Total {
			s.bad = append(s.bad, fmt.Sprintf("%s: blame sums to %v, not T = %v", pt.label, sum, rep.Total))
		}
	}
	return nil
}

// runSim runs one figure workload: set-up, a reference pass, the output
// checks, the timed untraced passes and, with tracing, the traced passes.
func runSim(spec simSpec, cfg config, r *result) error {
	scale := seededScale(spec.scale, cfg.seed)
	params := experiments.Params{Scale: scale, Seed: cfg.seed, Parallel: 1, Shards: spec.shards}
	figure := func(p experiments.Params) (experiments.Figure, error) {
		return experiments.NewSuite(p).Figure(spec.figure)
	}

	// Set-up: the suite and every point's simulated stack, built but not run.
	setups, err := timeSetup(cfg.probe, simSetupsPerSample, func() error {
		experiments.NewSuite(params)
		for _, pt := range spec.points(scale) {
			e := sim.NewEngine(experiments.DeriveSeed(cfg.seed, spec.sweepID, pt.label))
			if spec.shards > 0 {
				e.EnableSharding(spec.shards)
			}
			if _, err := pt.build(e); err != nil {
				return fmt.Errorf("point %s: %w", pt.label, err)
			}
			e.Shutdown()
		}
		return nil
	})
	if err != nil {
		return err
	}

	ref, err := figure(params)
	if err != nil {
		return err
	}
	r.check(ref.CC != nil && ref.CC.CC[core.BPS] > 0, "%s: normalized BPS CC %v does not have the Table 1 sign", spec.figure, ref.CC)
	verify, err := runSweep(spec, scale, cfg.seed, nil)
	if err != nil {
		return err
	}
	checkSweep(r, spec, ref, verify)

	other, err := figure(experiments.Params{Scale: seededScale(spec.scale, cfg.seed+1), Seed: cfg.seed + 1, Parallel: 1, Shards: spec.shards})
	if err != nil {
		return err
	}
	r.check(!reflect.DeepEqual(pointMetrics(other), pointMetrics(ref)), "%s: seed %d and seed %d give identical sweeps", spec.figure, cfg.seed, cfg.seed+1)

	steal0, total0 := stealTicks()
	passes, err := timedPhase(cfg.probe, cfg.seconds, nil, func() (int64, error) {
		f, err := figure(params)
		if err != nil {
			return 0, err
		}
		r.check(reflect.DeepEqual(pointMetrics(f), pointMetrics(ref)) && f.CC.CC[core.BPS] == ref.CC.CC[core.BPS],
			"%s: a repeat at seed %d differs from the first pass", spec.figure, cfg.seed)
		var n int64
		for _, pt := range f.Points {
			n += pt.Metrics.Ops
			r.failed += int64(pt.Errors)
		}
		return n, nil
	})
	if err != nil {
		return err
	}
	addEndToEnd(r, setups, passes, stealSince(steal0, total0))
	r.add("bps_cc", ref.CC.CC[core.BPS], "cc")
	if !cfg.trace {
		return nil
	}

	// Traced passes: the mirrored sweep with the observer's registry
	// attached, under the CPU profiler. The critical-path attribution
	// costs more host time than the simulation itself, so the blame comes
	// from one more pass outside the profile.
	var traced []sweepRun
	prof, overhead, err := tracedPhase(cfg.seconds, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := figure(params)
		return time.Since(t0), err
	}, nil, func() error {
		s, err := runSweep(spec, scale, cfg.seed, &obs.Options{})
		traced = append(traced, s)
		return err
	})
	if err != nil {
		return err
	}
	blamed, err := runSweep(spec, scale, cfg.seed, &obs.Options{Attribution: true})
	if err != nil {
		return err
	}
	checkSweep(r, spec, ref, traced[0])
	checkSweep(r, spec, ref, blamed)
	for _, s := range traced[1:] {
		r.check(reflect.DeepEqual(s.counts, traced[0].counts), "%s: traced counts differ between repeats", spec.figure)
	}
	c := traced[0].counts
	c.blame, c.blameTotal = blamed.counts.blame, blamed.counts.blameTotal
	r.check(reflect.DeepEqual(c, blamed.counts), "%s: attribution changed the counts", spec.figure)
	r.check(c.events == verify.counts.events && c.cacheHits == verify.counts.cacheHits,
		"%s: observing the run changed its events or cache hits", spec.figure)

	wall := untracedWall(passes)
	addCPU(r, prof, len(traced))
	r.add("tracing.overhead", overhead, "ratio")
	r.add("core.overlap_ns_per_rec", float64(traced[0].overlap.Nanoseconds())/float64(traced[0].records), "ns")
	zero(r, "backend.read_us.p50", "backend.read_us.p99", "backend.write_us.p50", "backend.write_us.p99",
		"backend.ops", "live.layout_s")
	events := float64(c.events)
	r.add("sim.events", events, "count/pass")
	r.add("sim.procs", float64(c.procs), "count/pass")
	r.add("sim.events_per_req", events/float64(c.accesses), "ratio")
	r.add("sim.events_per_s", events/wall, "1/s")
	if err := addCeiling(r, events/wall); err != nil {
		return err
	}
	r.add("device.ops", float64(c.deviceOps), "count/pass")
	r.add("device.busy_s", sim.Time(c.deviceBusyNS).Seconds(), "s")
	r.add("netsim.transfers", float64(c.netTransfers), "count/pass")
	r.add("netsim.bytes", float64(c.netBytes), "B/pass")
	r.add("fsim.cache_hits", float64(c.cacheHits), "count/pass")
	r.add("pfs.server_requests", float64(c.serverReqs), "count/pass")
	r.add("pfs.mds_ops", float64(c.mdsOps), "count/pass")
	r.add("pfs.retries", float64(c.retry), "count/pass")
	r.add("middleware.moved_over_required", float64(c.moved)/(float64(c.blocks)*512), "ratio")
	for _, l := range blameLayers {
		pct := 0.0
		if c.blameTotal > 0 {
			pct = 100 * float64(c.blame[l]) / float64(c.blameTotal)
		}
		r.add("blame."+l+"_pct", pct, "%")
	}
	addRuntime(r, passes)
	return nil
}

// checkSweep checks a mirrored sweep against the suite's figure: the
// same number of points with bit-identical metrics, each passing its
// output checks.
func checkSweep(r *result, spec simSpec, ref experiments.Figure, s sweepRun) {
	for _, bad := range s.bad {
		r.check(false, "%s point %s", spec.figure, bad)
	}
	r.check(len(s.metrics) == len(ref.Points), "%s: mirror has %d points, the suite %d", spec.figure, len(s.metrics), len(ref.Points))
	for i, m := range s.metrics {
		if i < len(ref.Points) {
			r.check(m == ref.Points[i].Metrics, "%s point %s: mirrored metrics %+v differ from the suite's %+v",
				spec.figure, ref.Points[i].Label, m, ref.Points[i].Metrics)
		}
	}
}

// pointMetrics lists a figure's per-point labels, metrics and errors.
func pointMetrics(f experiments.Figure) []experiments.Point {
	out := make([]experiments.Point, len(f.Points))
	for i, p := range f.Points {
		out[i] = experiments.Point{Label: p.Label, Metrics: p.Metrics, Errors: p.Errors}
	}
	return out
}
