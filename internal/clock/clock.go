// Package clock provides the Timeline sources a measurement run can
// tell time through. A simulated run's timeline is its engine; a live
// run's timeline is either the wall clock (real measurements on real
// hardware) or a deterministic virtual lane per worker (reproducible
// figures on the in-memory backend). All downstream consumers — trace
// records, the attrib window estimator, core.Compute — are pure over
// the sim.Time values a timeline hands out, so the same metric stack
// serves all three without modification.
package clock

import (
	"time"

	"bps/internal/sim"
)

// Timeline is any source of current time on some timeline. *sim.Engine
// satisfies it (simulated time), as do Wall and VirtualLane below.
type Timeline = sim.TimeSource

// Sim returns the timeline of a simulation engine: its own clock.
func Sim(e *sim.Engine) Timeline { return e }

// Wall is a live timeline anchored at an origin instant: Now reports
// nanoseconds elapsed since the origin, and Sleep blocks for real. One
// Wall is shared by all workers of a live run so their timestamps are
// mutually comparable — it is safe for concurrent use.
type Wall struct {
	origin time.Time
}

// NewWall returns a wall-clock timeline anchored at the current instant.
func NewWall() *Wall { return &Wall{origin: time.Now()} }

// Now returns nanoseconds elapsed since the origin.
func (w *Wall) Now() sim.Time { return sim.Time(time.Since(w.origin)) }

// Sleep blocks the calling goroutine for d real nanoseconds.
func (w *Wall) Sleep(d sim.Time) { time.Sleep(time.Duration(d)) }

// VirtualLane is a deterministic per-worker logical clock: Now returns
// the lane's cursor and Sleep advances it without blocking. Giving each
// live worker its own lane makes every timestamp a pure function of the
// workload and the cost model — independent of goroutine interleaving —
// which is what lets the in-memory backend produce byte-identical
// pinned figures. A lane must only be used by its own worker.
type VirtualLane struct {
	cur sim.Time
}

// NewVirtualLane returns a lane whose cursor starts at start.
func NewVirtualLane(start sim.Time) *VirtualLane { return &VirtualLane{cur: start} }

// Now returns the lane's cursor.
func (v *VirtualLane) Now() sim.Time { return v.cur }

// Sleep advances the cursor by d without blocking.
func (v *VirtualLane) Sleep(d sim.Time) {
	if d < 0 {
		panic("clock: negative sleep")
	}
	v.cur += d
}

// CostModel charges deterministic virtual time for live operations: a
// fixed per-op overhead plus size-proportional transfer time. It is the
// virtual counterpart of a simulated device's service time, applied by
// the live driver so VirtualLane runs accumulate meaningful, stable
// durations instead of zero-width accesses.
type CostModel struct {
	PerOp       sim.Time // fixed cost charged per operation
	BytesPerSec float64  // transfer rate; <=0 means no size-dependent cost
}

// DefaultCost is the default virtual service-time model of live runs:
// a fixed 100 µs per-op setup cost plus a 200 MB/s transfer rate. Small
// records are op-dominated (IOPS high, BW starved), large records
// transfer-dominated — the regime change that makes BPS, IOPS and BW
// rank a record-size sweep differently.
func DefaultCost() CostModel {
	return CostModel{PerOp: 100 * sim.Microsecond, BytesPerSec: 200e6}
}

// Cost returns the virtual duration of an operation moving n bytes.
func (m CostModel) Cost(n int64) sim.Time {
	d := m.PerOp
	if m.BytesPerSec > 0 && n > 0 {
		d += sim.TransferTime(n, m.BytesPerSec)
	}
	return d
}
