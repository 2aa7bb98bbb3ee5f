package testbed

import (
	"reflect"
	"testing"

	"bps/internal/shardtest"
	"bps/internal/sim"
	"bps/internal/workload"
)

// runShardedSeq runs one small shared-file sequential-read cluster on a
// sharded engine with the given worker count and returns its result.
func runShardedSeq(t *testing.T, workers int, spec ClusterSpec) workload.Result {
	return runSeq(t, workers, spec, false)
}

// runSeq is runShardedSeq with a choice of engine (workers 0 is the
// classic one) and of dropping the records (Pending.DropRecords).
func runSeq(t *testing.T, workers int, spec ClusterSpec, drop bool) workload.Result {
	t.Helper()
	e := sim.NewEngine(42)
	if workers > 0 {
		e.EnableSharding(workers)
	}
	defer e.Shutdown()
	env, err := NewSharedFileEnv(e, spec, 1<<28)
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	w := workload.SeqRead{
		Label:           "shard",
		Processes:       spec.Clients,
		BytesPerProcess: 1 << 21,
		RecordSize:      64 << 10,
		StartOffset:     func(pid int) int64 { return int64(pid) << 21 },
	}
	pend, err := w.Start(e, env)
	if err != nil {
		t.Fatalf("start (workers=%d): %v", workers, err)
	}
	if drop {
		pend.DropRecords()
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	res := pend.Result()
	if res.Errors != 0 {
		t.Fatalf("workers=%d: %d access errors", workers, res.Errors)
	}
	return res
}

// TestDropRecordsMatchesKept checks the record-free path against the
// records on the classic engine and on sharded ones, where each client
// domain feeds its own accumulator and Result merges them: no record is
// kept, and the metrics equal core.Compute over the kept records.
func TestDropRecordsMatchesKept(t *testing.T) {
	spec := ClusterSpec{Servers: 4, Media: SSD, Clients: 8}
	for _, k := range append([]int{0, 1}, shardtest.WorkerCounts(t, 2, 4, 8)...) {
		kept, free := runSeq(t, k, spec, false), runSeq(t, k, spec, true)
		if n := free.Trace.Len(); n != 0 {
			t.Errorf("workers=%d: %d records kept after DropRecords", k, n)
		}
		if kept.Trace.Len() == 0 {
			t.Fatalf("workers=%d: no records", k)
		}
		if got, want := free.Metrics(), kept.Metrics(); got != want {
			t.Errorf("workers=%d: record-free metrics %+v, from records %+v", k, got, want)
		}
	}
}

// TestShardedWorkerCountInvariant pins the tentpole guarantee: a sharded
// run's result is bit-identical for every worker count, because event
// order is a pure function of the domain topology, never of which worker
// executes a domain's window.
func TestShardedWorkerCountInvariant(t *testing.T) {
	spec := ClusterSpec{Servers: 4, Media: SSD, Clients: 8}
	base := runShardedSeq(t, 1, spec)
	if base.ExecTime <= 0 {
		t.Fatalf("degenerate run: ExecTime %v", base.ExecTime)
	}
	if base.Moved == 0 {
		t.Fatalf("degenerate run: no bytes moved")
	}
	for _, k := range shardtest.WorkerCounts(t, 2, 4, 8) {
		got := runShardedSeq(t, k, spec)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d diverged from workers=1:\n  base: ExecTime=%v Moved=%d records=%d\n  got:  ExecTime=%v Moved=%d records=%d",
				k, base.ExecTime, base.Moved, len(base.Trace.Records()),
				got.ExecTime, got.Moved, len(got.Trace.Records()))
		}
	}
}
