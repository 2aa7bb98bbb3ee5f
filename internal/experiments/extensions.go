package experiments

import (
	"fmt"

	"bps/internal/sim"
	"bps/internal/testbed"
	"bps/internal/workload"
)

// ExtensionIDs lists the experiments that go beyond the paper's figures,
// exercising its future-work direction of evaluating further I/O
// optimizations with BPS (paper §V).
var ExtensionIDs = []string{"ext1", "ext2", "ext3"}

// ext1 sweeps the client-side prefetch window on a hop-read workload:
// prefetching, like data sieving, moves data the application never
// required, so file-system bandwidth rises with the window while the
// application only gets slower — BW misleads, BPS does not (the paper's
// §I prefetching argument, measured).
func (s *Suite) ext1() (Figure, error) {
	pts, err := s.sweep("ext1", func() ([]Point, error) {
		windows := []int64{0, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
		const (
			hops       = 192
			perHop     = 4
			record     = 64 << 10
			fileFactor = 64
		)
		hopsScaled := int(s.params.Scale * hops * 64)
		if hopsScaled < 32 {
			hopsScaled = 32
		}
		var specs []runSpec
		for _, win := range windows {
			w := workload.HopRead{
				Label:          "hopread",
				Processes:      1,
				Hops:           hopsScaled,
				RecordsPerHop:  perHop,
				RecordSize:     record,
				PrefetchWindow: win,
				Seed:           s.params.Seed,
			}
			fileSize := w.RequiredBytes() * fileFactor / int64(perHop)
			label := "off"
			if win > 0 {
				label = sizeLabel(win)
			}
			specs = append(specs, runSpec{label: label, build: func(e *sim.Engine) (workload.Env, workload.Starter, error) {
				env, err := newLocalEnv(e, hdd, 1, fileSize)
				return env, w, err
			}})
		}
		return s.runSweep("ext1", specs)
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ext1",
		Title:  "Extension: normalized CC, prefetching as additional data movement",
		Notes:  "Paper §I names prefetching as the second extra-movement source; expectation: BW misleads, BPS correct.",
		XLabel: "prefetch window",
		Points: pts,
		CC:     ccTable("ext1", pts),
	}, nil
}

// ext2 repeats the record-size sweep (Set 2) with *writes* on an SSD
// under sustained-write conditions — FTL write amplification and
// garbage-collection stalls. The paper evaluates reads only; this checks
// that its conclusions carry over to the write path: IOPS and ARPT still
// invert, BW and BPS still track the application.
func (s *Suite) ext2() (Figure, error) {
	pts, err := s.sweep("ext2", func() ([]Point, error) {
		var specs []runSpec
		for _, record := range set2RecordSizes {
			fileSize := s.params.scaled(set2FileBytes, record)
			w := workload.SeqRead{
				Label:           "iozone-write",
				Processes:       1,
				BytesPerProcess: fileSize,
				RecordSize:      record,
				Write:           true,
			}
			specs = append(specs, runSpec{label: sizeLabel(record), build: func(e *sim.Engine) (workload.Env, workload.Starter, error) {
				env, err := testbed.NewLocalEnvOn(e, testbed.NewFTLSSD(e), 1, fileSize)
				return env, w, err
			}})
		}
		return s.runSweep("ext2", specs)
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ext2",
		Title:  "Extension: normalized CC, write record-size sweep on FTL SSD",
		Notes:  "Write-path analogue of Figs. 5-6 under write amplification and GC stalls; expectation: IOPS and ARPT mislead, BW and BPS correct.",
		XLabel: "record size",
		Points: pts,
		CC:     ccTable("ext2", pts),
	}, nil
}

// ext3 compares the three ways of servicing an interleaved
// noncontiguous pattern — direct, per-process data sieving, two-phase
// collective I/O — on one shared HDD-backed file. The point: execution
// time ranks collective < sieving < direct, BPS ranks them identically
// (its CC with execution time is correct), while file-system bandwidth
// cannot separate sieving from collective because it happily counts
// sieving's redundant re-reads as useful throughput.
func (s *Suite) ext3() (Figure, error) {
	pts, err := s.sweep("ext3", func() ([]Point, error) {
		const procs = 4
		const regionSize = 16 << 10
		regions := int(s.params.Scale * 64 * 2048)
		if regions < 128 {
			regions = 128
		}
		regions = regions / procs * procs
		var specs []runSpec
		for _, method := range []workload.AccessMethod{workload.DirectAccess, workload.SievingAccess, workload.CollectiveAccess} {
			w := workload.InterleavedRead{
				Label:        "romio",
				Processes:    procs,
				TotalRegions: regions,
				RegionSize:   regionSize,
				Method:       method,
			}
			fileSize := w.RequiredBytes()
			specs = append(specs, runSpec{label: method.String(), build: func(e *sim.Engine) (workload.Env, workload.Starter, error) {
				env, err := newLocalEnv(e, hdd, 1, fileSize)
				return env, w, err
			}})
		}
		return s.runSweep("ext3", specs)
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ext3",
		Title:  "Extension: access-method comparison (direct / sieving / collective)",
		Notes:  "ROMIO's two optimizations on an interleaved pattern; expectation: BPS ranks the methods by application speed, BW cannot separate sieving from collective.",
		XLabel: "access method",
		Points: pts,
		CC:     ccTable("ext3", pts),
	}, nil
}

// ensure the extension is reachable from Figure().
func (s *Suite) extension(id string) (Figure, error) {
	switch id {
	case "ext1":
		return s.ext1()
	case "ext2":
		return s.ext2()
	case "ext3":
		return s.ext3()
	default:
		return Figure{}, fmt.Errorf("experiments: unknown extension %q (have %v)", id, ExtensionIDs)
	}
}
