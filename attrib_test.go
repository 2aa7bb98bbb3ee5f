package bps_test

import (
	"bytes"
	"reflect"
	"testing"

	"bps"
)

// attribCases are the pinned-seed scenarios the attribution invariant
// is checked on: every simulated stack shape, including degraded and
// cached ones.
var attribCases = []struct {
	name string
	cfg  bps.RunConfig
}{
	{"local-hdd", bps.RunConfig{
		Storage: bps.Storage{Media: bps.HDD}, Seed: 7}},
	{"local-ssd-faulty", bps.RunConfig{
		Storage: bps.Storage{Media: bps.SSD, FaultEvery: 97}, Seed: 11}},
	{"cluster-shared", bps.RunConfig{
		Storage: bps.Storage{Media: bps.HDD, Servers: 2, SharedFile: true}, Seed: 7}},
	{"cluster-pinned", bps.RunConfig{
		Storage: bps.Storage{Media: bps.SSD, Servers: 2}, Seed: 13}},
	{"cluster-cache", bps.RunConfig{
		Storage: bps.Storage{Media: bps.HDD, Servers: 2, SharedFile: true,
			ClientCacheBytes: 1 << 20, ClientCacheReadAhead: 256 << 10}, Seed: 7}},
	{"cluster-faults", bps.RunConfig{
		Storage: bps.Storage{Media: bps.HDD, Servers: 2, SharedFile: true,
			FaultRate: 0.02}, Seed: 7}},
}

// attribEntryPoints are the public simulated entry points the
// invariants are checked on. cached marks the ones that model the
// client cache; the others reject it, so they skip cache stacks.
var attribEntryPoints = []struct {
	name   string
	cached bool
	run    func(t *testing.T, cfg bps.RunConfig) (bps.RunReport, error)
}{
	{"SequentialRead", true, func(t *testing.T, cfg bps.RunConfig) (bps.RunReport, error) {
		return bps.SimulateSequentialRead(cfg, 2, 256<<10, 64<<10)
	}},
	{"NoncontiguousRead", true, func(t *testing.T, cfg bps.RunConfig) (bps.RunReport, error) {
		return bps.SimulateNoncontiguousRead(cfg, 2, 64, 1<<10, 8<<10, true)
	}},
	{"ConcurrentApps", false, func(t *testing.T, cfg bps.RunConfig) (bps.RunReport, error) {
		combined, _, err := bps.SimulateConcurrentApps(cfg,
			bps.AppSpec{Name: "a", Processes: 1, BytesPerProcess: 128 << 10, RecordSize: 64 << 10},
			bps.AppSpec{Name: "b", Processes: 1, BytesPerProcess: 128 << 10, RecordSize: 32 << 10,
				ComputePerOp: bps.Millisecond},
		)
		return combined, err
	}},
	{"TenantsQoS", false, func(t *testing.T, cfg bps.RunConfig) (bps.RunReport, error) {
		// An unmeetable floor keeps the controller throttling b.
		combined, _, _, err := bps.SimulateTenants(cfg, bps.QoSConfig{Enabled: true},
			bps.TenantSpec{Tenant: bps.QoSTenant{Name: "a", Priority: 1, BPSFloor: 1e9},
				Processes: 1, BytesPerProcess: 256 << 10, RecordSize: 64 << 10},
			bps.TenantSpec{Tenant: bps.QoSTenant{Name: "b"},
				Processes: 2, BytesPerProcess: 64 << 10, RecordSize: 4 << 10},
		)
		return combined, err
	}},
	{"ReplayTrace", false, func(t *testing.T, cfg bps.RunConfig) (bps.RunReport, error) {
		blk := bps.BlocksOf(64 << 10)
		return bps.ReplayTrace(cfg, []bps.Record{
			{PID: 1, Blocks: blk, Start: 0, End: bps.Millisecond},
			{PID: 2, Blocks: blk, Start: 0, End: 2 * bps.Millisecond},
			{PID: 1, Blocks: blk, Start: 3 * bps.Millisecond, End: 4 * bps.Millisecond},
			{PID: 2, Blocks: 2 * blk, Start: 5 * bps.Millisecond, End: 6 * bps.Millisecond},
		})
	}},
	{"ReplayLog", false, func(t *testing.T, cfg bps.RunConfig) (bps.RunReport, error) {
		l, err := bps.ReadLog("testdata/darshan_sample.csv")
		if err != nil {
			t.Fatal(err)
		}
		return bps.ReplayLog(cfg, l)
	}},
}

// TestAttributionPartitionsOverlapTime is the tentpole invariant: on
// every pinned-seed run of every simulated entry point, the per-layer
// exclusive times must sum exactly (integer nanoseconds, no rounding
// tolerance) to the overlapped I/O time T that the BPS metric divides
// by, and the report's B and T must be the core B/T of its records.
func TestAttributionPartitionsOverlapTime(t *testing.T) {
	for _, tc := range attribCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, ep := range attribEntryPoints {
				if tc.cfg.Storage.ClientCacheBytes > 0 && !ep.cached {
					continue
				}
				t.Run(ep.name, func(t *testing.T) {
					cfg := tc.cfg
					cfg.Observe = &bps.ObserveOptions{
						Attribution: true,
						WindowEvery: 10 * bps.Millisecond,
					}
					rep, err := ep.run(t, cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkPartition(t, rep)
				})
			}
		})
	}
}

// checkPartition asserts the B/T and blame invariants on one report.
func checkPartition(t *testing.T, rep bps.RunReport) {
	t.Helper()
	var recBlocks int64
	for _, r := range rep.Records {
		recBlocks += r.Blocks
	}
	if rep.Metrics.Blocks != recBlocks {
		t.Fatalf("Metrics.Blocks = %d, records sum to %d", rep.Metrics.Blocks, recBlocks)
	}
	if got := bps.OverlapTime(rep.Records); rep.Metrics.IOTime != got {
		t.Fatalf("Metrics.IOTime = %v, OverlapTime(records) = %v", rep.Metrics.IOTime, got)
	}
	if rep.Metrics.IOTime > rep.Metrics.ExecTime {
		t.Fatalf("T = %v exceeds exec time %v", rep.Metrics.IOTime, rep.Metrics.ExecTime)
	}
	a := rep.Attribution
	if a == nil {
		t.Fatal("no attribution report")
	}
	if a.Total != rep.Metrics.IOTime {
		t.Fatalf("attribution Total = %v, want overlapped T %v", a.Total, rep.Metrics.IOTime)
	}
	if got := a.ExclusiveSum(); got != a.Total {
		t.Fatalf("exclusive sum = %v, want exactly T = %v (diff %v)",
			got, a.Total, got-a.Total)
	}
	if a.Dominant() == "" {
		t.Fatal("no dominant layer on a non-empty run")
	}
	// The folded stacks are an alternative partition of T.
	var stackSum bps.Time
	for _, st := range a.Stacks {
		stackSum += st.Time
	}
	if stackSum != a.Total {
		t.Fatalf("stack sum = %v, want T = %v", stackSum, a.Total)
	}
	// The streaming windows account for every access and block.
	var ops, blocks int64
	for _, w := range a.Windows {
		ops += w.Ops
		blocks += w.Blocks
	}
	if ops != rep.Metrics.Ops || blocks != rep.Metrics.Blocks {
		t.Fatalf("windows saw %d ops / %d blocks, run had %d / %d",
			ops, blocks, rep.Metrics.Ops, rep.Metrics.Blocks)
	}
	// Per-window busy never exceeds the window and sums to T.
	var busy bps.Time
	for _, w := range a.Windows {
		if w.Busy < 0 || w.Busy > w.End-w.Start {
			t.Fatalf("window at %v busy %v out of range", w.Start, w.Busy)
		}
		busy += w.Busy
	}
	if busy != rep.Metrics.IOTime {
		t.Fatalf("window busy sum = %v, want T = %v", busy, rep.Metrics.IOTime)
	}
}

// TestAttributionIsTimingNeutral requires that turning the profiler on
// changes nothing about the simulation: records and metrics are
// byte-identical with attribution off and on.
func TestAttributionIsTimingNeutral(t *testing.T) {
	for _, tc := range attribCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(observe *bps.ObserveOptions) bps.RunReport {
				cfg := tc.cfg
				cfg.Observe = observe
				rep, err := bps.SimulateSequentialRead(cfg, 2, 256<<10, 64<<10)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			plain := run(nil)
			attributed := run(&bps.ObserveOptions{
				Attribution: true,
				WindowEvery: 5 * bps.Millisecond,
			})
			if !reflect.DeepEqual(plain.Records, attributed.Records) {
				t.Fatal("attribution changed the records")
			}
			if plain.Metrics != attributed.Metrics {
				t.Fatalf("attribution changed the metrics:\n off %+v\n  on %+v",
					plain.Metrics, attributed.Metrics)
			}
			var a, b bytes.Buffer
			if err := bps.WriteTraceCSV(&a, plain.Records); err != nil {
				t.Fatal(err)
			}
			if err := bps.WriteTraceCSV(&b, attributed.Records); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("attribution changed the trace CSV bytes")
			}
		})
	}
}

// TestAttributionFoldedExport: WriteFolded output is deterministic for
// a pinned seed and parses back to the report's stacks.
func TestAttributionFoldedExport(t *testing.T) {
	cfg := attribCases[2].cfg // cluster-shared
	cfg.Observe = &bps.ObserveOptions{Attribution: true}
	run := func() []byte {
		rep, err := bps.SimulateSequentialRead(cfg, 2, 256<<10, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Attribution.WriteFolded(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("folded output not deterministic:\n%s\nvs\n%s", first, second)
	}
	if len(first) == 0 {
		t.Fatal("empty folded output on an instrumented cluster run")
	}
}
