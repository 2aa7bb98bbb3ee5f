package main

import (
	"io/fs"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"bps/internal/backend"
	"bps/internal/clock"
	"bps/internal/core"
	"bps/internal/live"
	"bps/internal/sim"
	"bps/internal/stats"
	"bps/internal/workload"
)

// The livemem-rw stream: liveWorkers workers, each on its own slot file
// of liveSpan bytes, share liveAccesses accesses of 4–64 KB; a quarter
// are writes, and half continue sequentially while half jump to a random
// page-aligned offset.
const (
	liveWorkers  = 2
	liveAccesses = 200_000
	liveSpan     = 64 << 20
	livePage     = 4 << 10
)

// liveSetupsPerSample is how many set-ups one set-up sample averages.
const liveSetupsPerSample = 3

// liveStream generates the seeded access stream.
func liveStream(seed int64) []workload.Access {
	rng := rand.New(rand.NewSource(seed))
	accs := make([]workload.Access, 0, liveAccesses)
	next := make([]int64, liveWorkers)
	for i := 0; i < liveAccesses; i++ {
		pid := i % liveWorkers
		size := livePage * (1 + rng.Int63n(16))
		off := next[pid]
		if rng.Intn(2) == 0 || off+size > liveSpan {
			off = livePage * rng.Int63n((liveSpan-size)/livePage+1)
		}
		next[pid] = off + size
		accs = append(accs, workload.Access{PID: int64(pid), Slot: pid, Write: rng.Intn(4) == 0, Off: off, Size: size})
	}
	return accs
}

// liveConfig runs on the deterministic virtual clock with the livemem
// figure's cost model, so the run's B/T is a pure function of the stream.
func liveConfig(fsys backend.FS, seed int64) live.Config {
	return live.Config{
		FS:          fsys,
		Mode:        live.Virtual,
		Cost:        clock.CostModel{PerOp: 100 * sim.Microsecond, BytesPerSec: 200e6},
		WindowEvery: 10 * sim.Millisecond,
		Seed:        seed,
		Label:       "livemem-rw",
	}
}

// laidOut returns a fresh memfs with the stream's slot files in place.
func laidOut(accs []workload.Access) (*backend.MemFS, error) {
	fsys := backend.NewMemFS()
	_, err := live.Layout(fsys, accs)
	return fsys, err
}

func runLiveMem(cfg config, r *result) error {
	var (
		accs    []workload.Access
		fsys    *backend.MemFS
		layouts []float64
	)
	layout := func() error {
		fsys = nil
		runtime.GC() // free the previous pass's files before laying out new ones
		t0 := time.Now()
		var err error
		fsys, err = laidOut(accs)
		layouts = append(layouts, time.Since(t0).Seconds())
		return err
	}
	// Set-up: generate the stream and lay out a fresh memfs.
	setups, err := timeSetup(cfg.probe, liveSetupsPerSample, func() error {
		accs = liveStream(cfg.seed)
		t0 := time.Now()
		_, err := laidOut(accs)
		layouts = append(layouts, time.Since(t0).Seconds())
		return err
	})
	if err != nil {
		return err
	}
	if err := layout(); err != nil {
		return err
	}

	ref, err := live.Run(liveConfig(fsys, cfg.seed), accs)
	if err != nil {
		return err
	}
	checkLive(r, ref, len(accs))

	other, err := otherSeed(cfg.seed + 1)
	if err != nil {
		return err
	}
	r.check(other.Metrics != ref.Metrics, "livemem-rw: seed %d and seed %d give identical runs", cfg.seed, cfg.seed+1)

	// Each pass runs on a freshly laid-out memfs, so no pass inherits the
	// previous one's written pages or moved-byte count.
	steal0, total0 := stealTicks()
	passes, err := timedPhase(cfg.probe, cfg.seconds, layout, func() (int64, error) {
		rep, err := live.Run(liveConfig(fsys, cfg.seed), accs)
		if err != nil {
			return 0, err
		}
		r.check(rep.Metrics == ref.Metrics, "livemem-rw: a repeat at seed %d differs from the first pass", cfg.seed)
		r.failed += int64(rep.Errors)
		return int64(len(accs)), nil
	})
	if err != nil {
		return err
	}
	addEndToEnd(r, setups, passes, stealSince(steal0, total0))
	r.add("bps", ref.Metrics.BPS(), "blocks/s")
	if !cfg.trace {
		return nil
	}

	// Traced passes: the backend handed to live.Run times every call.
	var (
		times    opTimes
		overlap  time.Duration
		records  int
		tracedFS backend.FS
	)
	prof, overhead, err := tracedPhase(cfg.seconds, func() (time.Duration, error) {
		tracedFS = nil
		runtime.GC()
		m, err := laidOut(accs)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = live.Run(liveConfig(m, cfg.seed), accs)
		return time.Since(t0), err
	}, func() error {
		runtime.GC()
		m, err := laidOut(accs)
		tracedFS = timedFS{m, &times}
		return err
	}, func() error {
		rep, err := live.Run(liveConfig(tracedFS, cfg.seed), accs)
		if err != nil {
			return err
		}
		checkLive(r, rep, len(accs))
		r.check(rep.Metrics == ref.Metrics, "livemem-rw: the traced run differs from the untraced one")
		t0 := time.Now()
		core.OverlapTime(rep.Records)
		overlap += time.Since(t0)
		records += len(rep.Records)
		return nil
	})
	if err != nil {
		return err
	}
	tracedPasses := records / len(accs)

	addCPU(r, prof, tracedPasses)
	r.add("tracing.overhead", overhead, "ratio")
	r.add("core.overlap_ns_per_rec", float64(overlap.Nanoseconds())/float64(records), "ns")
	reads, writes := times.sorted()
	r.add("backend.read_us.p50", stats.QuantileSorted(reads, 0.50), "us")
	r.add("backend.read_us.p99", stats.QuantileSorted(reads, 0.99), "us")
	r.add("backend.write_us.p50", stats.QuantileSorted(writes, 0.50), "us")
	r.add("backend.write_us.p99", stats.QuantileSorted(writes, 0.99), "us")
	r.add("backend.ops", float64(len(reads)+len(writes))/float64(tracedPasses), "count/pass")
	r.add("backend.samples", float64(len(reads)+len(writes)), "count")
	r.add("live.layout_s", median(layouts), "s")
	zero(r, "sim.events", "sim.procs", "sim.events_per_req", "sim.events_per_s")
	if err := addCeiling(r, 0); err != nil {
		return err
	}
	zero(r, "device.ops", "device.busy_s", "netsim.transfers", "netsim.bytes", "fsim.cache_hits",
		"pfs.server_requests", "pfs.mds_ops", "pfs.retries")
	m := ref.Metrics
	r.add("middleware.moved_over_required", float64(m.MovedBytes)/(float64(m.Blocks)*512), "ratio")
	for _, l := range blameLayers {
		zero(r, "blame."+l+"_pct")
	}
	addRuntime(r, passes)
	return nil
}

// otherSeed runs the stream of another seed on its own memfs.
func otherSeed(seed int64) (live.Report, error) {
	accs := liveStream(seed)
	fsys, err := laidOut(accs)
	if err != nil {
		return live.Report{}, err
	}
	return live.Run(liveConfig(fsys, seed), accs)
}

// checkLive applies the output checks to one live run.
func checkLive(r *result, rep live.Report, accesses int) {
	for _, bad := range checkPoint(rep.Metrics, rep.Records) {
		r.check(false, "livemem-rw: %s", bad)
	}
	r.check(rep.Metrics.Ops == int64(accesses), "livemem-rw: %d of %d accesses recorded", rep.Metrics.Ops, accesses)
}

// timedFS is a backend decorator that times every ReadAt and WriteAt of
// the files it opens.
type timedFS struct {
	backend.FS
	t *opTimes
}

func (f timedFS) OpenFile(name string, flag int, perm fs.FileMode) (backend.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.t}, nil
}

type timedFile struct {
	backend.File
	t *opTimes
}

func (f timedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.t.add(false, time.Since(t0))
	return n, err
}

func (f timedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.t.add(true, time.Since(t0))
	return n, err
}

// opTimes collects call durations from concurrent workers.
type opTimes struct {
	mu            sync.Mutex
	reads, writes []time.Duration
}

func (t *opTimes) add(write bool, d time.Duration) {
	t.mu.Lock()
	if write {
		t.writes = append(t.writes, d)
	} else {
		t.reads = append(t.reads, d)
	}
	t.mu.Unlock()
}

// sorted returns the read and write durations in microseconds, ascending.
func (t *opTimes) sorted() (reads, writes []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	us := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(d.Nanoseconds()) / 1e3
		}
		sort.Float64s(out)
		return out
	}
	return us(t.reads), us(t.writes)
}
