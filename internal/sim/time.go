// Package sim implements a deterministic discrete-event simulation engine
// used as the execution substrate for the simulated I/O stack.
//
// The engine is process-oriented in the style of SimPy: simulation
// processes are ordinary Go functions running as coroutines of the dispatch
// loop, and the engine guarantees that at most one process (or event callback) executes at a
// time and that execution order is fully determined by (event time, FIFO
// sequence). Given the same seed and the same program, a simulation run is
// bit-for-bit reproducible.
package sim

import "fmt"

// Time is a point in simulated time, measured in nanoseconds since the
// start of the simulation. It is deliberately distinct from time.Time and
// time.Duration: simulated time has no wall-clock anchor and must support
// exact integer arithmetic for reproducibility.
type Time int64

// Duration constants in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = 1<<63 - 1

// Seconds converts a simulated time or duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts a simulated time or duration to floating-point
// milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros converts a simulated time or duration to floating-point
// microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts floating-point seconds to simulated time, rounding
// to the nearest nanosecond.
func FromSeconds(s float64) Time {
	if s <= 0 {
		return 0
	}
	return Time(s*float64(Second) + 0.5)
}

// TransferTime returns the simulated time needed to move size bytes at
// bytesPerSec, rounded up to a whole nanosecond so that nonzero transfers
// always consume nonzero time.
func TransferTime(size int64, bytesPerSec float64) Time {
	if size <= 0 || bytesPerSec <= 0 {
		return 0
	}
	t := Time(float64(size) / bytesPerSec * float64(Second))
	if t <= 0 {
		t = 1
	}
	return t
}

// String renders the time using the most natural unit, for logs and tests.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}
