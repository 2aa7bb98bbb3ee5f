package experiments

import (
	"fmt"
	"runtime"

	"bps/internal/sim"
	"bps/internal/workload"
)

// ShardScaleFigureID names the shard-scaling headline figure: the
// cluster-scale sweep the sharded engine exists for — 10^5 and more
// client processes over a thousand-server cluster, a size the classic
// single-calendar engine handles but cannot spread across cores. Like
// FaultFigureID it is routed through Suite.Figure but kept out of
// FigureIDs: the paper-reproduction outputs stay exactly as they were.
//
// The figure always runs on a sharded engine (Params.Shards workers
// when set, GOMAXPROCS otherwise). Results are bit-identical for every
// worker count, so the figure itself is reproducible on any machine;
// only the wall-clock time changes with the core count.
const ShardScaleFigureID = "shardscale"

// DefaultShardScaleProcs is the shardscale x-axis: the client process
// counts swept over the thousand-server cluster.
var DefaultShardScaleProcs = []int{25000, 50000, 100000}

// shardScaleServers is the cluster size of the shardscale figure.
const shardScaleServers = 1000

// shardScalePerProcBytes is each client process's unscaled read volume;
// Params.Scale shrinks it like every other sweep's data sizes.
const shardScalePerProcBytes = 16 << 20

// shardScaleWorkers resolves the figure's shard-worker count.
func (s *Suite) shardScaleWorkers() int {
	if s.params.Shards > 0 {
		return s.params.Shards
	}
	return runtime.GOMAXPROCS(0)
}

// shardScaleSweep runs the shardscale sweep: an independent-region
// sequential read (one region per process, one client per process,
// each client in its own engine domain) on a shared file striped over
// every server. Unlike the other sweeps it executes its points
// sequentially regardless of Params.Parallel: each run is internally
// parallel across the shard workers and holds ~10^5 process
// goroutines, so overlapping runs would multiply peak memory for no
// wall-clock win.
func (s *Suite) shardScaleSweep() ([]Point, error) {
	return s.sweep(ShardScaleFigureID, func() ([]Point, error) {
		const record = 64 << 10
		workers := s.shardScaleWorkers()
		perProc := s.params.scaled(shardScalePerProcBytes, record)
		var pts []Point
		for _, procs := range DefaultShardScaleProcs {
			procs := procs
			label := fmt.Sprintf("p%d", procs)
			w := workload.SeqRead{
				Label:           "shardscale",
				Processes:       procs,
				BytesPerProcess: perProc,
				RecordSize:      record,
				StartOffset:     func(pid int) int64 { return int64(pid) * perProc },
			}
			pt, ob, err := runOne(DeriveSeed(s.params.Seed, ShardScaleFigureID, label), label, workers, s.observe,
				func(e *sim.Engine) (workload.Env, workload.Starter, error) {
					env, err := newSharedFileEnv(e, clusterSpec{
						Servers: shardScaleServers,
						Media:   ssd,
						Clients: procs,
					}, perProc*int64(procs))
					return env, w, err
				})
			if err != nil {
				return nil, err
			}
			if ob != nil {
				s.lastObs = ob
			}
			pts = append(pts, pt)
		}
		return pts, nil
	})
}

// figShardScale assembles the shardscale figure.
func (s *Suite) figShardScale() (Figure, error) {
	pts, err := s.shardScaleSweep()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:    ShardScaleFigureID,
		Title: "ShardScale: BPS at cluster scale on the sharded engine",
		Notes: fmt.Sprintf("%d I/O servers, one domain per client and per server, conservative-lookahead windows; results are bit-identical for every shard-worker count.",
			shardScaleServers),
		XLabel: "client processes",
		Points: pts,
		CC:     ccTable(ShardScaleFigureID, pts),
	}, nil
}
