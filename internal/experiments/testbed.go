package experiments

import (
	"fmt"

	"bps/internal/obs"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/trace"
	"bps/internal/workload"
)

// Aliases keeping the experiment code close to the paper's vocabulary;
// the actual models live in internal/testbed.
const (
	hdd = testbed.HDD
	ssd = testbed.SSD
)

type storageKind = testbed.Media

type clusterSpec = testbed.ClusterSpec

func newLocalEnv(e *sim.Engine, k storageKind, nfiles int, fileSize int64) (*workload.LocalEnv, error) {
	return testbed.NewLocalEnv(e, k, nfiles, fileSize)
}

func newSharedFileEnv(e *sim.Engine, spec clusterSpec, fileSize int64) (*workload.ClusterEnv, error) {
	return testbed.NewSharedFileEnv(e, spec, fileSize)
}

func newMetaFilesEnv(e *sim.Engine, spec clusterSpec, filesPerProc int, fileSize int64) (*workload.ClusterEnv, error) {
	return testbed.NewMetaFilesEnv(e, spec, filesPerProc, fileSize)
}

func newPinnedFilesEnv(e *sim.Engine, spec clusterSpec, filePerProc int64) (*workload.ClusterEnv, error) {
	if spec.Clients > spec.Servers {
		return nil, fmt.Errorf("experiments: pure-concurrency env needs a server per client (%d > %d)",
			spec.Clients, spec.Servers)
	}
	return testbed.NewPinnedFilesEnv(e, spec, filePerProc)
}

// Simulate is the one run lifecycle every simulated run goes through,
// the paper's §III.B procedure: run the I/O system, gather every
// application's records, hand them to the B/T computation. In order it
//
//  1. builds an engine seeded with seed;
//  2. enables sharding with shards workers when shards > 0 — before the
//     observer attaches, because obs.Attach checks e.Sharded() to decide
//     which of its features can run against concurrent domains;
//  3. attaches an observer when observe is non-nil;
//  4. runs body, which builds the stack, drives the workload and returns
//     the gathered application records (only an observed run reads
//     them, so an unobserved body may return none);
//  5. shuts the engine down, unwinding server daemons so sweeps don't
//     accumulate goroutines (also when body fails);
//  6. takes the sampler's final sample and feeds the records to the
//     observer's trace and attribution profiler, aligning the
//     application timeline with the per-layer spans recorded live.
//
// It returns the observer, nil when observe is nil. Simulate touches no
// shared state, so it is safe to call from any worker goroutine.
func Simulate(seed int64, shards int, observe *obs.Options, body func(e *sim.Engine) ([]trace.Record, error)) (*obs.Observer, error) {
	e := sim.NewEngine(seed)
	if shards > 0 {
		e.EnableSharding(shards)
	}
	var ob *obs.Observer
	if observe != nil {
		ob = obs.Attach(e, *observe)
	}
	records, err := body(e)
	e.Shutdown()
	if err != nil {
		return nil, err
	}
	if ob != nil {
		ob.FinishSampling()
		for _, r := range records {
			ob.AddAppRecord(r.PID, r.Blocks, r.Start, r.End)
		}
	}
	return ob, nil
}

// observation labels a run's observer for the suite; nil when the run
// was not observed.
func observation(label string, ob *obs.Observer) *Observation {
	if ob == nil {
		return nil
	}
	return &Observation{Label: label, Obs: ob}
}

// runOne executes one workload run through Simulate and converts the
// result into a sweep point. When observe is non-nil the run gets its
// own observer, returned alongside the point, and keeps its records for
// it. Otherwise nothing reads the records, so the run drops them and
// its metrics come from the online accumulators (Pending.DropRecords),
// which give the same values with no record buffer, gather copy or
// sort. shards > 0 runs the simulation on a sharded engine with that
// many workers (results are bit-identical for every positive value); 0
// keeps the classic single-calendar engine.
func runOne(seed int64, label string, shards int, observe *obs.Options, build buildFunc) (Point, *Observation, error) {
	var res workload.Result
	ob, err := Simulate(seed, shards, observe, func(e *sim.Engine) ([]trace.Record, error) {
		env, w, err := build(e)
		if err != nil {
			return nil, err
		}
		pend, err := w.Start(e, env)
		if err != nil {
			return nil, err
		}
		if observe == nil {
			pend.DropRecords()
		}
		if err := e.Run(); err != nil {
			return nil, err
		}
		res = pend.Result()
		return res.Trace.Records(), nil
	})
	if err != nil {
		return Point{}, nil, fmt.Errorf("run %s: %w", label, err)
	}
	pt := Point{
		Label:   label,
		Metrics: res.Metrics(),
		Errors:  res.Errors,
	}
	if ob != nil {
		pt.Blame = ob.Attribution().Dominant()
	}
	return pt, observation(label, ob), nil
}
