package experiments

import (
	"reflect"
	"testing"

	"bps/internal/shardtest"
)

// shardedFig9 reproduces fig9 (the process-count sweep on the parallel
// stack — the most contention-heavy paper figure) at tiny scale on a
// sharded engine with the given worker count.
func shardedFig9(t *testing.T, shards int) Figure {
	t.Helper()
	s := NewSuite(Params{Scale: 1.0 / 1024, Seed: 42, Parallel: 1, Shards: shards})
	f, err := s.Figure("fig9")
	if err != nil {
		t.Fatalf("fig9 (shards=%d): %v", shards, err)
	}
	return f
}

// TestShardsParamWorkerInvariance pins the Params.Shards contract end
// to end through the experiment runner: a whole reproduced figure —
// every point's metrics and CC table — is bit-identical for every
// shard-worker count.
func TestShardsParamWorkerInvariance(t *testing.T) {
	base := shardedFig9(t, 1)
	if len(base.Points) == 0 {
		t.Fatal("fig9 produced no points")
	}
	for _, pt := range base.Points {
		if pt.Metrics.ExecTime <= 0 {
			t.Fatalf("degenerate point %q: ExecTime %v", pt.Label, pt.Metrics.ExecTime)
		}
	}
	for _, w := range shardtest.WorkerCounts(t, 2, 4, 8) {
		got := shardedFig9(t, w)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("fig9 with shards=%d diverged from shards=1", w)
		}
	}
}
