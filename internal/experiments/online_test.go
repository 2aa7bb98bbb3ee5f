package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"bps/internal/obs"
)

// TestRecordFreeMetricsMatchObserved pins the record-free sweep path:
// an unobserved run drops its records and takes N, B, ΣD and T from
// the per-domain online accumulators, while an observed run keeps its
// records for the observer and computes core.Compute over them. For
// every figure built on runOne, on the classic engine and on a sharded
// one (one domain per client), the two must give bit-identical points.
// (shardscale runs on the same path but needs 10^5 processes; qos and
// livemem keep their records.)
func TestRecordFreeMetricsMatchObserved(t *testing.T) {
	ids := append(append([]string(nil), FigureIDs...), ExtensionIDs...)
	ids = append(ids, FaultFigureID, ClientCacheFigureID)
	for _, shards := range []int{0, 2} {
		for _, id := range ids {
			t.Run(fmt.Sprintf("%s/shards=%d", id, shards), func(t *testing.T) {
				p := Params{Scale: 1.0 / 256, Seed: 42, Shards: shards, FaultRates: []float64{0, 0.05}}
				free, err := NewSuite(p).Figure(id)
				if err != nil {
					t.Fatal(err)
				}
				s := NewSuite(p)
				s.SetObserve(&obs.Options{})
				kept, err := s.Figure(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(free.Points) == 0 || len(free.Points) != len(kept.Points) {
					t.Fatalf("%d record-free points, %d observed", len(free.Points), len(kept.Points))
				}
				for i, pt := range free.Points {
					o := kept.Points[i]
					if pt.Label != o.Label || pt.Metrics != o.Metrics || pt.Errors != o.Errors || !reflect.DeepEqual(pt.Aux, o.Aux) {
						t.Errorf("point %s: record-free %+v (errors %d, aux %v), observed %+v (errors %d, aux %v)",
							pt.Label, pt.Metrics, pt.Errors, pt.Aux, o.Metrics, o.Errors, o.Aux)
					}
				}
			})
		}
	}
}
