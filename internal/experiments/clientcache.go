package experiments

import (
	"bps/internal/ioreq"
	"bps/internal/sim"
	"bps/internal/workload"
)

// ClientCacheFigureID names the client-cache sweep: the layer-pipeline
// experiment showing BPS diverging from file-system bandwidth as a
// client-side shared page cache absorbs a rising share of the accesses.
// Like FaultFigureID it is routed through Suite.Figure but kept out of
// FigureIDs, so the paper-reproduction outputs stay exactly as they
// were.
const ClientCacheFigureID = "clientcache"

// clientCacheFileBytes is the sweep's unscaled shared-file volume.
const clientCacheFileBytes = 4 << 30

// clientCacheFractions is the sweep x-axis: the client cache's capacity
// as a fraction of the file, from disabled to file-sized.
var clientCacheFractions = []struct {
	label string
	num   int64
	den   int64
}{
	{"off", 0, 1},
	{"1/8", 1, 8},
	{"1/4", 1, 4},
	{"1/2", 1, 2},
	{"full", 1, 1},
}

// clientCacheSweep reruns one HopRead workload — random bursts over a
// shared striped file, re-visiting far more records than the file holds
// distinct pages — while the client cache's capacity rises from zero to
// the whole file. The access pattern (workload seed) is identical at
// every point; only the cache differs. Server-side caching is disabled
// (ServerCache < 0) so the bytes the file system moves track client
// misses one-for-one: as the hit rate climbs, execution time and moved
// bytes fall together, file-system bandwidth stays pinned near the
// device rate, and BPS — which counts the application's block demand B
// against the shrinking access time — is the only throughput metric
// that rises with the delivered service.
func (s *Suite) clientCacheSweep() ([]Point, error) {
	return s.sweep(ClientCacheFigureID, func() ([]Point, error) {
		const (
			record  = 64 << 10
			procs   = 4
			servers = 4
			perHop  = 4
		)
		fileBytes := s.params.scaled(clientCacheFileBytes, record)
		// Revisit ~4x the file per run so capacity, not compulsory
		// misses, dominates the hit rate.
		hops := int(4 * fileBytes / procs / (perHop * record))
		if hops < 16 {
			hops = 16
		}
		w := workload.HopRead{
			Label:         "hop-clientcache",
			Processes:     procs,
			Hops:          hops,
			RecordsPerHop: perHop,
			RecordSize:    record,
			// One seed for the whole sweep: every point replays the same
			// access sequence, so B is constant and only the cache moves.
			Seed: DeriveSeed(s.params.Seed, ClientCacheFigureID, "hops"),
		}
		caches := make([]*ioreq.Cache, len(clientCacheFractions))
		var specs []runSpec
		for i, fr := range clientCacheFractions {
			i, fr := i, fr
			specs = append(specs, runSpec{label: fr.label, build: func(e *sim.Engine) (workload.Env, workload.Starter, error) {
				env, err := newSharedFileEnv(e, clusterSpec{
					Servers:     servers,
					Media:       hdd,
					Clients:     procs,
					ServerCache: -1,
					ClientCache: ioreq.CacheConfig{
						CapacityBytes: fileBytes * fr.num / fr.den,
						PageSize:      record,
						ReadAhead:     2 * record,
					},
				}, fileBytes)
				if err == nil {
					caches[i] = env.Cache
				}
				return env, w, err
			}})
		}
		pts, err := s.runSweep(ClientCacheFigureID, specs)
		if err != nil {
			return nil, err
		}
		// runSweep's worker pool has fully drained here, so the caches
		// each run published are safe to read.
		for i := range pts {
			pts[i].Aux = map[string]float64{"hit_rate": caches[i].HitRate()}
		}
		return pts, nil
	})
}

// figClientCache assembles the client-cache figure.
func (s *Suite) figClientCache() (Figure, error) {
	pts, err := s.clientCacheSweep()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     ClientCacheFigureID,
		Title:  "ClientCache: BPS vs. BW/IOPS/ARPT under rising cache hit rates",
		Notes:  "Shared client page cache in front of the pfs client; server caching off. Expectation: hits cut execution time without moving file-system bytes, so BW stays near the device rate while BPS rises with the delivered service.",
		XLabel: "cache capacity",
		Points: pts,
		CC:     ccTable(ClientCacheFigureID, pts),
	}, nil
}
