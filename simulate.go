package bps

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"bps/internal/device"
	"bps/internal/experiments"
	"bps/internal/faults"
	"bps/internal/ioreq"
	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/workload"
)

// SimulateEach runs fn(i) for every i in [0, n) across at most parallel
// worker goroutines (0 means GOMAXPROCS) and returns the lowest-index
// error once all runs have finished. It is the batch entry point for
// independent simulations — what-if comparisons across storage stacks,
// seed sweeps, replay fan-outs. Each invocation must be self-contained:
// build its own RunConfig and call one Simulate*/Replay function, which
// runs on its own engine; results must depend only on i, never on
// execution order, so a parallel batch is bit-identical to a sequential
// one.
func SimulateEach(parallel, n int, fn func(i int) error) error {
	return experiments.ForEach(parallel, n, fn)
}

// Media selects the storage medium for a simulated run.
type Media = testbed.Media

// Storage media matching the paper's testbed devices.
const (
	HDD = testbed.HDD
	SSD = testbed.SSD
)

// Storage describes the storage stack for a simulated run.
type Storage struct {
	// Media is the device model (HDD or SSD).
	Media Media

	// Servers selects the stack: 0 means a direct-attached local file
	// system; n ≥ 1 means a PVFS-like parallel file system with n I/O
	// servers on a Gigabit fabric.
	Servers int

	// SharedFile, for cluster stacks, stripes one shared file across all
	// servers and gives each process its own segment (IOR style). When
	// false, each process gets its own file pinned to one server (the
	// paper's "pure" concurrency setup).
	SharedFile bool

	// FaultEvery, when nonzero, fails every Nth device access after it
	// has consumed its full service time — the paper's §III.A
	// non-successful accesses, which still count in B. Only local stacks
	// model it (Servers == 0); cluster stacks reject a non-zero value.
	FaultEvery uint64

	// FaultRate, when positive, degrades the whole stack with a
	// seed-deterministic fault plan of that intensity (per-access device
	// fault probability; stragglers, throughput degradation, network
	// drops/delays, and server fail/slow/death scale with it — see
	// internal/faults.Profile). Cluster stacks also enable the client
	// recovery policy: per-RPC timeouts, capped exponential backoff with
	// jitter, and failover to replica servers. Local stacks inject
	// device-layer faults only, surfacing them as application-visible
	// errors that still count in B.
	FaultRate float64

	// ClientCacheBytes, when positive on a cluster stack, layers a
	// shared client-side page cache in front of every client: re-read
	// pages are served at memory speed without touching the fabric or
	// the servers. Zero leaves the request path exactly as before. Only
	// SimulateSequentialRead and SimulateNoncontiguousRead on a cluster
	// model the cache; every other run rejects a non-zero value rather
	// than measure an uncached stack.
	ClientCacheBytes int64

	// ClientCacheReadAhead is the client cache's sequential read-ahead
	// window in bytes (0 = no read-ahead). Only meaningful when
	// ClientCacheBytes is positive.
	ClientCacheReadAhead int64
}

// ParseStack interprets the command-line stack grammar: hdd or ssd for
// a local stack, hddxN or ssdxN for a cluster of N servers sharing one
// striped file.
func ParseStack(s string) (Storage, error) {
	media := HDD
	rest := s
	switch {
	case strings.HasPrefix(s, "hdd"):
		rest = strings.TrimPrefix(s, "hdd")
	case strings.HasPrefix(s, "ssd"):
		media = SSD
		rest = strings.TrimPrefix(s, "ssd")
	default:
		return Storage{}, fmt.Errorf("unknown stack %q (hdd, ssd, hddxN, ssdxN)", s)
	}
	if rest == "" {
		return Storage{Media: media}, nil
	}
	if !strings.HasPrefix(rest, "x") {
		return Storage{}, fmt.Errorf("unknown stack %q (hdd, ssd, hddxN, ssdxN)", s)
	}
	n, err := strconv.Atoi(rest[1:])
	if err != nil || n < 1 {
		return Storage{}, fmt.Errorf("bad server count in %q", s)
	}
	return Storage{Media: media, Servers: n, SharedFile: true}, nil
}

// RunConfig carries the common knobs of a simulated run.
type RunConfig struct {
	Storage Storage

	// Seed makes runs reproducible; equal seeds give identical results.
	Seed int64

	// Shards, when positive, runs the simulation on a sharded engine
	// with that many workers: every I/O server (and the metadata server)
	// gets its own event calendar and the calendars execute concurrently
	// under conservative lookahead windows. Results are bit-identical
	// for every positive value — only classic (0) vs. sharded differ,
	// because the sharded request path models RPCs asynchronously.
	// Negative means GOMAXPROCS. Requires a cluster stack (Servers > 0).
	Shards int

	// Observe, when non-nil, attaches the observability subsystem to the
	// run: metrics registry, time-series sampler, and (per the options)
	// Chrome trace-event collection. It never changes the simulated
	// timeline — an observed run measures exactly what an unobserved one
	// does. The collected data is returned in RunReport.Obs.
	Observe *ObserveOptions
}

// RunReport is everything measured from one simulated run.
type RunReport struct {
	// Metrics holds the run's measurements; use its IOPS, Bandwidth,
	// ARPT, and BPS methods for the four metric values.
	Metrics Metrics

	// Records is the gathered application-access trace.
	Records []Record

	// Errors counts failed application accesses (still included in B).
	Errors int

	// Obs is the run's observability data (metrics registry, sampler
	// series, Chrome trace buffer); nil unless RunConfig.Observe was set.
	Obs *Observer

	// Attribution is the critical-path profiler's decomposition of the
	// run's overlapped time T into per-layer blame; nil unless
	// ObserveOptions.Attribution or WindowEvery was set.
	Attribution *Attribution
}

// SimulateSequentialRead runs an IOzone/IOR-style workload: procs
// processes each sequentially read bytesPerProc bytes in recordSize
// records.
func SimulateSequentialRead(cfg RunConfig, procs int, bytesPerProc, recordSize int64) (RunReport, error) {
	w := workload.SeqRead{
		Label:           "seqread",
		Processes:       procs,
		BytesPerProcess: bytesPerProc,
		RecordSize:      recordSize,
	}
	if cfg.Storage.Servers > 0 && cfg.Storage.SharedFile {
		w.UseMPIIO = true
		w.StartOffset = func(pid int) int64 { return int64(pid) * bytesPerProc }
	}
	return simulate(cfg, procs, int64(procs)*bytesPerProc, bytesPerProc, w)
}

// SimulateNoncontiguousRead runs an HPIO-style workload: each process
// reads regionCount regions of regionSize bytes separated by spacing
// bytes of hole through the MPI-IO layer, with or without data sieving.
func SimulateNoncontiguousRead(cfg RunConfig, procs, regionCount int, regionSize, spacing int64, sieving bool) (RunReport, error) {
	w := workload.Noncontig{
		Label:          "noncontig",
		Processes:      procs,
		RegionCount:    regionCount,
		RegionSize:     regionSize,
		RegionSpacing:  spacing,
		RegionsPerCall: 1024,
		Sieving:        sieving,
	}
	perProc := w.Span() + w.RegionSpacing
	cfg.Storage.SharedFile = cfg.Storage.Servers > 0 // region bases are per-process segments
	return simulate(cfg, procs, int64(procs)*perProc, perProc, w)
}

// AppSpec describes one application in a multi-application simulation.
type AppSpec struct {
	Name            string
	Processes       int
	BytesPerProcess int64
	RecordSize      int64

	// ComputePerOp inserts think time after each record, letting apps
	// with different I/O intensity share the system.
	ComputePerOp Time
}

// SimulateConcurrentApps runs several applications concurrently on one
// I/O system and records all of them, the paper's multi-application
// case (§III.B step 1: "If the I/O system services more than one
// application concurrently, we record the I/O access information of all
// the applications"). It returns the combined report — B, T, and the
// metrics over every application's accesses — plus one report per
// application.
//
// It is SimulateTenants with a zero QoSConfig: each application becomes
// a tenant of the same name (so names must be non-empty and distinct),
// admitted unarbitrated. Process IDs are globally unique across
// applications. Each process gets its own file; on a cluster each file
// is striped over all servers. MovedBytes in every report is the
// system-wide total: file-system-level movement is not attributable to
// one application, which is exactly why the paper gathers a global
// collection.
func SimulateConcurrentApps(cfg RunConfig, apps ...AppSpec) (combined RunReport, perApp []RunReport, err error) {
	if len(apps) == 0 {
		return RunReport{}, nil, fmt.Errorf("bps: no applications given")
	}
	tenants := make([]TenantSpec, len(apps))
	for i, app := range apps {
		tenants[i] = TenantSpec{
			Tenant:          QoSTenant{Name: app.Name},
			Processes:       app.Processes,
			BytesPerProcess: app.BytesPerProcess,
			RecordSize:      app.RecordSize,
			ComputePerOp:    app.ComputePerOp,
		}
	}
	combined, perApp, _, err = SimulateTenants(cfg, QoSConfig{}, tenants...)
	return combined, perApp, err
}

// run validates cfg's public knobs and executes body through the one
// run lifecycle, experiments.Simulate. Every simulated entry point
// passes through here. cached reports whether the entry point models
// the client cache; where it does not (or on a local stack) a non-zero
// cache knob is an error rather than silently ignored; FaultEvery is
// likewise an error on a cluster stack, whose devices it cannot reach.
// Sharding partitions the simulation by I/O server, so it needs a
// cluster stack; negative Shards means GOMAXPROCS.
func run(cfg RunConfig, cached bool, body func(e *sim.Engine) ([]Record, error)) (*Observer, error) {
	s := cfg.Storage
	if r := s.FaultRate; math.IsNaN(r) || r < 0 || r > 1 {
		return nil, fmt.Errorf("bps: FaultRate %v outside [0,1]", r)
	}
	if s.FaultEvery != 0 && s.Servers > 0 {
		return nil, fmt.Errorf("bps: FaultEvery is modelled only on a local stack (Storage.Servers == 0); use FaultRate on a cluster")
	}
	if (s.ClientCacheBytes != 0 || s.ClientCacheReadAhead != 0) && (!cached || s.Servers == 0) {
		return nil, fmt.Errorf("bps: the client cache is modelled only by SimulateSequentialRead and SimulateNoncontiguousRead on a cluster stack")
	}
	shards := cfg.Shards
	if shards < 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > 0 && s.Servers == 0 {
		return nil, fmt.Errorf("bps: Shards needs a cluster stack (Storage.Servers > 0)")
	}
	return experiments.Simulate(cfg.Seed, shards, cfg.Observe, body)
}

// runWorkload runs w on the env build makes and reports it.
func runWorkload(cfg RunConfig, cached bool, w workload.Runner, build func(e *sim.Engine) (workload.Env, error)) (RunReport, error) {
	var res workload.Result
	ob, err := run(cfg, cached, func(e *sim.Engine) ([]Record, error) {
		env, err := build(e)
		if err != nil {
			return nil, fmt.Errorf("bps: building storage: %w", err)
		}
		if res, err = w.Run(e, env); err != nil {
			return nil, fmt.Errorf("bps: running workload: %w", err)
		}
		return res.Trace.Records(), nil
	})
	if err != nil {
		return RunReport{}, err
	}
	return RunReport{
		Metrics:     res.Metrics(),
		Records:     res.Trace.Records(),
		Errors:      res.Errors,
		Obs:         ob,
		Attribution: ob.Attribution(),
	}, nil
}

// faultPlan derives the run's fault plan from the public FaultRate
// knob. The plan seed is a pure function of the run seed, so two runs
// with equal configs inject identical fault patterns; a zero rate
// yields a disabled plan that changes nothing.
func faultPlan(cfg RunConfig) faults.Config {
	return faults.Profile(experiments.DeriveSeed(cfg.Seed, "bps-fault-plan", "run"), cfg.Storage.FaultRate)
}

// clusterSpec translates cfg's storage knobs into the testbed's cluster
// spec with the given client count.
func clusterSpec(cfg RunConfig, clients int) testbed.ClusterSpec {
	return testbed.ClusterSpec{
		Servers:     cfg.Storage.Servers,
		Media:       cfg.Storage.Media,
		Clients:     clients,
		Faults:      faultPlan(cfg),
		ClientCache: ioreq.CacheConfig{CapacityBytes: cfg.Storage.ClientCacheBytes, ReadAhead: cfg.Storage.ClientCacheReadAhead},
	}
}

// localDevice builds a local stack's device with the configured fault
// wrappers: the deterministic every-Nth injector (FaultEvery) and/or
// the seeded plan's device faults (FaultRate). With neither it is the
// bare device. It returns nil on a cluster stack, whose devices the
// testbed builds per server.
func localDevice(e *sim.Engine, cfg RunConfig) device.Device {
	if cfg.Storage.Servers > 0 {
		return nil
	}
	dev := testbed.NewDevice(e, cfg.Storage.Media)
	if cfg.Storage.FaultEvery > 0 {
		dev = faults.NewEveryNth(dev, cfg.Storage.FaultEvery)
	}
	return faults.WrapDevice(e, dev, faultPlan(cfg), "local."+cfg.Storage.Media.String())
}

// simulate builds the configured stack on a fresh engine and runs w.
func simulate(cfg RunConfig, procs int, totalBytes, perProcBytes int64, w workload.Runner) (RunReport, error) {
	if procs < 1 {
		return RunReport{}, fmt.Errorf("bps: procs %d < 1", procs)
	}
	return runWorkload(cfg, true, w, func(e *sim.Engine) (workload.Env, error) {
		switch {
		case cfg.Storage.Servers == 0:
			return testbed.NewLocalEnvOn(e, localDevice(e, cfg), procs, perProcBytes)
		case cfg.Storage.SharedFile:
			return testbed.NewSharedFileEnv(e, clusterSpec(cfg, procs), totalBytes)
		default:
			return testbed.NewPinnedFilesEnv(e, clusterSpec(cfg, procs), perProcBytes)
		}
	})
}

// ReplayTrace re-issues a recorded trace (from any source: a prior
// simulation, iogen, or imported blkparse output) against the configured
// storage stack, returning what the same access pattern would have
// measured there. Sizes, per-process ordering, concurrency structure,
// and think gaps are preserved; physical placement is synthesized
// sequentially per process because the paper's 32-byte record carries no
// offsets.
func ReplayTrace(cfg RunConfig, records []Record) (RunReport, error) {
	if len(records) == 0 {
		return RunReport{}, fmt.Errorf("bps: empty trace")
	}
	w := workload.Replay{Label: "replay", Records: records}
	sizes := w.PIDBytes()
	pids := make([]int64, 0, len(sizes))
	for pid := range sizes {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	fileSizes := make([]int64, len(pids))
	for slot, pid := range pids {
		fileSizes[slot] = sizes[pid]
	}
	return replayOn(cfg, w, fileSizes)
}

// ReplayAccesses re-issues an offset-aware access stream — typically
// reconstructed from an ingested Darshan-style log (see ReadLog) —
// against the configured storage stack. Unlike ReplayTrace, accesses
// keep their recorded operations, offsets, and file separation: the env
// gets one file per access slot, sized to the largest offset reached.
func ReplayAccesses(cfg RunConfig, accs []workload.Access) (RunReport, error) {
	if len(accs) == 0 {
		return RunReport{}, fmt.Errorf("bps: empty access stream")
	}
	w := workload.ReplayIO{Label: "replay", Accesses: accs}
	return replayOn(cfg, w, w.SlotExtents())
}

// replayOn builds a replay env with one file per fileSizes entry and
// runs w on it.
func replayOn(cfg RunConfig, w workload.Runner, fileSizes []int64) (RunReport, error) {
	return runWorkload(cfg, false, w, func(e *sim.Engine) (workload.Env, error) {
		return testbed.NewFilesEnv(e, clusterSpec(cfg, 0), localDevice(e, cfg), "replay", fileSizes)
	})
}
