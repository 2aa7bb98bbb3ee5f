package experiments

import (
	"fmt"

	"bps/internal/backend"
	"bps/internal/clock"
	"bps/internal/live"
	"bps/internal/sim"
	"bps/internal/workload"
)

// LiveMemFigureID names the live in-memory-backend figure: the record-
// size sweep of the paper's set 2, but measured — not simulated —
// against the memfs backend through the live driver. Each worker runs
// on a deterministic virtual clock lane with a fixed cost model, so the
// figure is byte-identical on every run and machine (pinned by golden
// test), while exercising the entire live measurement path: backend
// files, the shared middleware chain, the window estimator, and
// core.Compute over real trace records. Like the other extension
// figures it is routed through Suite.Figure but kept out of FigureIDs.
const LiveMemFigureID = "livemem"

// liveMemFileBytes is the unscaled per-process volume.
const liveMemFileBytes = 256 << 20

// liveMemProcs is the live worker count (one clock lane each).
const liveMemProcs = 4

// liveMemAccesses builds the deterministic workload for one record
// size: every process sequentially reads its own slot file in record-
// size chunks, back to back (Start 0 — pacing comes entirely from the
// cost model on each lane).
func liveMemAccesses(fileBytes, record int64) []workload.Access {
	var accs []workload.Access
	for pid := 0; pid < liveMemProcs; pid++ {
		for off := int64(0); off < fileBytes; off += record {
			n := record
			if off+n > fileBytes {
				n = fileBytes - off
			}
			accs = append(accs, workload.Access{
				PID: int64(pid), Slot: pid, Off: off, Size: n,
			})
		}
	}
	return accs
}

// figLiveMem measures the record-size sweep on the memfs backend.
func (s *Suite) figLiveMem() (Figure, error) {
	pts, err := s.sweep(LiveMemFigureID, func() ([]Point, error) {
		pts := make([]Point, 0, len(set2RecordSizes))
		for _, record := range set2RecordSizes {
			label := sizeLabel(record)
			fileBytes := s.params.scaled(liveMemFileBytes, record)
			rep, err := live.Run(live.Config{
				FS:          backend.NewMemFS(),
				Mode:        live.Virtual,
				Cost:        clock.DefaultCost(),
				WindowEvery: 10 * sim.Millisecond,
				Seed:        DeriveSeed(s.params.Seed, LiveMemFigureID, label),
				Label:       LiveMemFigureID + "-" + label,
			}, liveMemAccesses(fileBytes, record))
			if err != nil {
				return nil, fmt.Errorf("livemem %s: %w", label, err)
			}
			pts = append(pts, Point{
				Label:   label,
				Metrics: rep.Metrics,
				Errors:  rep.Errors,
				Aux: map[string]float64{
					"windows": float64(len(rep.Attribution.Windows)),
				},
			})
		}
		return pts, nil
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     LiveMemFigureID,
		Title:  "LiveMem: record-size sweep measured on the in-memory backend",
		Notes:  "Live driver on memfs with per-worker virtual clock lanes (deterministic cost model); BPS tracks required blocks over overlapped time while IOPS rewards small records and BW rewards large ones.",
		XLabel: "record size",
		Points: pts,
		CC:     ccTable(LiveMemFigureID, pts),
	}, nil
}
