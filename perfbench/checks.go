package main

import (
	"fmt"
	"math"

	"bps/internal/core"
	"bps/internal/trace"
)

// checkPoint returns why one sweep point or live run's output is wrong,
// or nothing: B must equal the blocks of its records, BPS must be finite
// and positive, and the overlapped I/O time T cannot exceed the
// application's execution time.
func checkPoint(m core.Metrics, records []trace.Record) []string {
	var bad []string
	var blocks int64
	for _, rec := range records {
		blocks += rec.Blocks
	}
	if m.Blocks != blocks {
		bad = append(bad, fmt.Sprintf("B = %d blocks but the records sum to %d", m.Blocks, blocks))
	}
	if bps := m.BPS(); math.IsNaN(bps) || math.IsInf(bps, 0) || bps <= 0 {
		bad = append(bad, fmt.Sprintf("BPS = %v, want finite and > 0", bps))
	}
	if m.IOTime > m.ExecTime {
		bad = append(bad, fmt.Sprintf("T = %v exceeds the execution time %v", m.IOTime, m.ExecTime))
	}
	return bad
}
