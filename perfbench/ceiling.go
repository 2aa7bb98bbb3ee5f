package main

import (
	"time"

	"bps/internal/sim"
)

// The host ceiling of the simulator: the event rate it could reach if
// every event were an empty dispatch plus one proc hand-off. Both costs
// are timed through sim's public API alone, median of ceilingReps runs.
const (
	ceilingReps    = 5
	dispatchEvents = 1 << 20
	pingPongSleeps = 1 << 17 // per proc
	pingPongProcs  = 2
	nsPerSecond    = 1e9
)

// dispatchNS times a chain of empty events, each scheduling the next.
func dispatchNS() (float64, error) {
	e := sim.NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < dispatchEvents {
			e.After(sim.Nanosecond, step)
		}
	}
	e.At(0, step)
	t0 := time.Now()
	err := e.Run()
	return float64(time.Since(t0).Nanoseconds()) / dispatchEvents, err
}

// sleepNS times two procs that take turns sleeping one nanosecond: each
// Sleep is a wake-up event plus a hand-off from the proc to the engine
// and back.
func sleepNS() (float64, error) {
	e := sim.NewEngine(1)
	for i := 0; i < pingPongProcs; i++ {
		e.Spawn("pingpong", func(p *sim.Proc) {
			for j := 0; j < pingPongSleeps; j++ {
				p.Sleep(sim.Nanosecond)
			}
		})
	}
	t0 := time.Now()
	err := e.Run()
	ns := float64(time.Since(t0).Nanoseconds()) / (pingPongProcs * pingPongSleeps)
	e.Shutdown()
	return ns, err
}

// addCeiling reports sim.dispatch_ns, sim.switch_ns, the ceiling
// 1/(dispatch + switch) and the workload's headroom against it.
func addCeiling(r *result, eventsPerSec float64) error {
	var dispatch, sleep []float64
	for i := 0; i < ceilingReps; i++ {
		d, err := dispatchNS()
		if err != nil {
			return err
		}
		s, err := sleepNS()
		if err != nil {
			return err
		}
		dispatch = append(dispatch, d)
		sleep = append(sleep, s)
	}
	d, s := median(dispatch), median(sleep)
	ceiling := nsPerSecond / s
	r.add("sim.dispatch_ns", d, "ns")
	r.add("sim.switch_ns", s-d, "ns")
	r.add("sim.ceiling_events_per_s", ceiling, "1/s")
	r.add("sim.host_headroom", eventsPerSec/ceiling, "ratio")
	return nil
}
