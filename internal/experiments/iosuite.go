package experiments

import (
	"fmt"
	"math"

	"bps/internal/core"
	"bps/internal/roofline"
	"bps/internal/sim"
	"bps/internal/stats"
	"bps/internal/workload"
)

// This file is the IO500-style composite suite: four phases spanning
// the access-pattern space (bandwidth-friendly sequential, adversarial
// small-record, random, and metadata-heavy), each swept over client
// concurrency and repeated under independent seeds. Where the paper
// figures report one CC per sweep, the suite reports the CC's
// *distribution* across seeds with bootstrap confidence bounds, plus
// each run's headroom against the analytic roofline ceiling — "how well
// does BPS track execution time" and "how close to the roof did the
// system get" with error bars on both.

// SuiteFigureID names the suite figure on the bpsbench command line.
const SuiteFigureID = "suite"

// suiteProcs is the concurrency sweep every phase walks.
var suiteProcs = []int{1, 2, 4}

// mdsServiceTime mirrors the pfs metadata server's default per-op
// service time, which the metadata phase's roofline ceiling must
// account for (the simulation reads it from pfs.Config defaults).
const mdsServiceTime = 200 * sim.Microsecond

// SuitePhase is one phase of the composite, aggregated across seeds.
type SuitePhase struct {
	// Name is easy, hard, random, or meta.
	Name string

	// Points holds the base-seed sweep (one Point per concurrency
	// level) with the Headroom field populated — the representative
	// run the report tables show.
	Points []Point

	// CeilingBPS is the analytic roofline ceiling per point, aligned
	// with Points. Ceilings are a pure function of the configuration,
	// so they are seed-invariant.
	CeilingBPS []float64

	// CC and RankCC hold the distribution (across seeds) of the
	// normalized Pearson and Spearman correlation coefficients between
	// each metric and execution time, with bootstrap CIs.
	CC     map[core.MetricKind]stats.Dist
	RankCC map[core.MetricKind]stats.Dist

	// Headroom is the distribution of measured BPS / ceiling BPS over
	// every (seed, concurrency) run of the phase.
	Headroom stats.Dist
}

// SuiteReport is the full composite result.
type SuiteReport struct {
	Params Params
	Seeds  int
	Phases []SuitePhase

	// Composite is the distribution (across seeds) of the geometric
	// mean over phases of each phase's mean BPS — the IO500-style
	// single score, with error bars instead of a bare number.
	Composite stats.Dist
}

// suitePoint describes one (phase, concurrency) cell: how to build its
// run and how to compute its analytic ceiling.
type suitePoint struct {
	label string
	procs int

	// record and extraPerOp parameterize the roofline ceiling: the
	// record size requests are issued in and any fixed per-record cost
	// beyond the device+link path (the metadata phase's amortized MDS
	// service).
	record     int64
	extraPerOp sim.Time

	spec  clusterSpec
	build buildFunc
}

// suitePhaseSpec is one phase's sweep description.
type suitePhaseSpec struct {
	name   string
	points []suitePoint
}

// suiteSpec returns the four phase descriptions for one parameter set.
// Everything here is a pure function of p — the per-seed runs share it.
func suiteSpec(p Params) []suitePhaseSpec {
	phases := make([]suitePhaseSpec, 0, 4)

	spec := func(procs int) clusterSpec {
		return clusterSpec{Servers: 4, Media: ssd, Clients: procs}
	}

	// Phase "easy": IOR-style segmented sequential read of a shared
	// striped file in large records — the bandwidth-friendly pattern
	// that should ride the bandwidth roof.
	{
		const record = 1 << 20
		perProc := p.scaled(256<<20, record)
		pts := make([]suitePoint, 0, len(suiteProcs))
		for _, procs := range suiteProcs {
			procs := procs
			cs := spec(procs)
			pts = append(pts, suitePoint{
				label:  fmt.Sprintf("%dp", procs),
				procs:  procs,
				record: record,
				spec:   cs,
				build: func(e *sim.Engine) (workload.Env, workload.Starter, error) {
					env, err := newSharedFileEnv(e, cs, int64(procs)*perProc)
					if err != nil {
						return nil, nil, err
					}
					w := workload.SeqRead{
						Label:           "suite-easy",
						Processes:       procs,
						BytesPerProcess: perProc,
						RecordSize:      record,
						StartOffset:     func(pid int) int64 { return int64(pid) * perProc },
					}
					return env, w, nil
				},
			})
		}
		phases = append(phases, suitePhaseSpec{name: "easy", points: pts})
	}

	// Phase "hard": the same shared file hammered in small MPI-IO
	// records — per-request fixed costs dominate and the op roof binds.
	{
		const record = 16 << 10
		perProc := p.scaled(32<<20, record)
		pts := make([]suitePoint, 0, len(suiteProcs))
		for _, procs := range suiteProcs {
			procs := procs
			cs := spec(procs)
			pts = append(pts, suitePoint{
				label:  fmt.Sprintf("%dp", procs),
				procs:  procs,
				record: record,
				spec:   cs,
				build: func(e *sim.Engine) (workload.Env, workload.Starter, error) {
					env, err := newSharedFileEnv(e, cs, int64(procs)*perProc)
					if err != nil {
						return nil, nil, err
					}
					w := workload.SeqRead{
						Label:           "suite-hard",
						Processes:       procs,
						BytesPerProcess: perProc,
						RecordSize:      record,
						StartOffset:     func(pid int) int64 { return int64(pid) * perProc },
						UseMPIIO:        true,
					}
					return env, w, nil
				},
			})
		}
		phases = append(phases, suitePhaseSpec{name: "hard", points: pts})
	}

	// Phase "random": seeded hop reads across a large shared file —
	// partial locality, no pattern the server readahead can ride.
	{
		const record = 8 << 10
		hops := int(p.Scale * 256)
		if hops < 4 {
			hops = 4
		}
		fileSize := p.scaled(512<<20, 1<<20)
		pts := make([]suitePoint, 0, len(suiteProcs))
		for _, procs := range suiteProcs {
			procs := procs
			cs := spec(procs)
			label := fmt.Sprintf("%dp", procs)
			hopSeed := stats.DeriveSeed(p.Seed, "suite-random-offsets", label)
			pts = append(pts, suitePoint{
				label:  label,
				procs:  procs,
				record: record,
				spec:   cs,
				build: func(e *sim.Engine) (workload.Env, workload.Starter, error) {
					env, err := newSharedFileEnv(e, cs, fileSize)
					if err != nil {
						return nil, nil, err
					}
					w := workload.HopRead{
						Label:         "suite-random",
						Processes:     procs,
						Hops:          hops,
						RecordsPerHop: 4,
						RecordSize:    record,
						Seed:          hopSeed,
					}
					return env, w, nil
				},
			})
		}
		phases = append(phases, suitePhaseSpec{name: "random", points: pts})
	}

	// Phase "meta": mdtest-style open+read storms over many small
	// files. Each file costs one MDS round trip, so the roofline's
	// extra per-record cost is the MDS service time amortized over the
	// records one open amortizes across.
	{
		const record = 16 << 10
		const fileSize = 64 << 10
		files := int(p.Scale * 256)
		if files < 4 {
			files = 4
		}
		recordsPerFile := int64(fileSize) / record
		extra := mdsServiceTime / sim.Time(recordsPerFile)
		pts := make([]suitePoint, 0, len(suiteProcs))
		for _, procs := range suiteProcs {
			procs := procs
			cs := spec(procs)
			pts = append(pts, suitePoint{
				label:      fmt.Sprintf("%dp", procs),
				procs:      procs,
				record:     record,
				extraPerOp: extra,
				spec:       cs,
				build: func(e *sim.Engine) (workload.Env, workload.Starter, error) {
					env, err := newMetaFilesEnv(e, cs, files, fileSize)
					if err != nil {
						return nil, nil, err
					}
					w := workload.MetaRead{
						Label:           "suite-meta",
						Processes:       procs,
						FilesPerProcess: files,
						RecordSize:      record,
					}
					return env, w, nil
				},
			})
		}
		phases = append(phases, suitePhaseSpec{name: "meta", points: pts})
	}

	return phases
}

// ceilings returns the per-point roofline ceilings of one phase.
func (ph suitePhaseSpec) ceilings() []float64 {
	out := make([]float64, len(ph.points))
	for i, pt := range ph.points {
		out[i] = roofline.FromCluster(pt.spec).CeilingBPS(pt.record, pt.procs, pt.extraPerOp)
	}
	return out
}

// seedRun holds one seed's sweep of every phase, in phase order.
type seedRun struct {
	phases [][]Point
}

// RunSuite executes the composite under nseeds independent seeds (the
// base seed, then consecutive offsets — the robustness convention) and
// aggregates per-phase CC and headroom distributions with bootstrap
// CIs. Per-seed suites fan out across p.Parallel workers and fold in
// seed order; every bootstrap PRNG is seeded by stats.DeriveSeed from
// stable identifiers, so the report is bit-identical for any worker
// count.
func RunSuite(p Params, nseeds int) (SuiteReport, error) {
	if nseeds < 2 {
		return SuiteReport{}, fmt.Errorf("experiments: suite needs ≥ 2 seeds for CC distributions, got %d", nseeds)
	}
	p = p.withDefaults()
	phases := suiteSpec(p)

	runs := make([]seedRun, nseeds)
	err := ForEach(p.Parallel, nseeds, func(s int) error {
		params := p
		params.Seed = p.Seed + int64(s)*1000
		st := NewSuite(params)
		run := seedRun{phases: make([][]Point, len(phases))}
		for pi, ph := range phases {
			// The sweep spec is rebuilt per seed only for the
			// seed-bearing parts (hop offsets); sizes are identical.
			specPh := suiteSpec(params)[pi]
			specs := make([]runSpec, len(specPh.points))
			for i, pt := range specPh.points {
				specs[i] = runSpec{label: pt.label, build: pt.build}
			}
			pts, err := st.runSweep("suite-"+ph.name, specs)
			if err != nil {
				return err
			}
			run.phases[pi] = pts
		}
		runs[s] = run
		return nil
	})
	if err != nil {
		return SuiteReport{}, err
	}

	rep := SuiteReport{Params: p, Seeds: nseeds, Phases: make([]SuitePhase, len(phases))}
	composite := make([]float64, 0, nseeds)
	for pi, ph := range phases {
		out := SuitePhase{
			Name:       ph.name,
			CeilingBPS: ph.ceilings(),
			CC:         make(map[core.MetricKind]stats.Dist),
			RankCC:     make(map[core.MetricKind]stats.Dist),
		}

		// CC distributions: one normalized Pearson and Spearman value
		// per seed, summarized across seeds.
		for _, k := range core.Kinds {
			ccs := make([]float64, 0, nseeds)
			rccs := make([]float64, 0, nseeds)
			for s := 0; s < nseeds; s++ {
				pts := runs[s].phases[pi]
				vals := make([]float64, len(pts))
				exec := make([]float64, len(pts))
				for i, pt := range pts {
					vals[i] = pt.Metrics.Value(k)
					exec[i] = pt.Metrics.ExecTime.Seconds()
				}
				cc := stats.MetricCC(k, vals, exec)
				rcc := stats.NormalizedCC(stats.Spearman(vals, exec), k.ExpectedDirection())
				if math.IsNaN(cc) || math.IsNaN(rcc) {
					return SuiteReport{}, fmt.Errorf("experiments: suite phase %s seed %d: CC(%v) is NaN", ph.name, p.Seed+int64(s)*1000, k)
				}
				ccs = append(ccs, cc)
				rccs = append(rccs, rcc)
			}
			out.CC[k] = stats.NewDist(ccs, stats.BootstrapConfig{
				Seed: stats.DeriveSeed(p.Seed, "suite-bootstrap", ph.name+"/cc/"+k.String()),
			})
			out.RankCC[k] = stats.NewDist(rccs, stats.BootstrapConfig{
				Seed: stats.DeriveSeed(p.Seed, "suite-bootstrap", ph.name+"/rankcc/"+k.String()),
			})
		}

		// Headroom distribution over every (seed, point) run.
		headrooms := make([]float64, 0, nseeds*len(ph.points))
		for s := 0; s < nseeds; s++ {
			for i, pt := range runs[s].phases[pi] {
				headrooms = append(headrooms, roofline.Headroom(pt.Metrics.BPS(), out.CeilingBPS[i]))
			}
		}
		out.Headroom = stats.NewDist(headrooms, stats.BootstrapConfig{
			Seed: stats.DeriveSeed(p.Seed, "suite-bootstrap", ph.name+"/headroom"),
		})

		// Representative points: the base seed's sweep with headroom.
		out.Points = append([]Point(nil), runs[0].phases[pi]...)
		for i := range out.Points {
			out.Points[i].Headroom = roofline.Headroom(out.Points[i].Metrics.BPS(), out.CeilingBPS[i])
		}
		rep.Phases[pi] = out
	}

	// Composite score: per-seed geometric mean of phase mean BPS.
	for s := 0; s < nseeds; s++ {
		means := make([]float64, len(phases))
		for pi := range phases {
			vals := make([]float64, len(runs[s].phases[pi]))
			for i, pt := range runs[s].phases[pi] {
				vals[i] = pt.Metrics.BPS()
			}
			means[pi] = stats.Mean(vals)
		}
		composite = append(composite, stats.GeoMean(means))
	}
	rep.Composite = stats.NewDist(composite, stats.BootstrapConfig{
		Seed: stats.DeriveSeed(p.Seed, "suite-bootstrap", "composite"),
	})
	return rep, nil
}
