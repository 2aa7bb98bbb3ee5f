package device_test

import (
	"errors"
	"testing"

	"bps/internal/device"
	"bps/internal/faults"
	"bps/internal/sim"
)

// TestFaultInjector checks the Device contract for injected faults from
// the caller's side: a request picked to fail returns ErrInjectedFault,
// is counted in Stats.Errors, and still consumed its full service, both
// in Stats and on the simulated clock (the paper counts such accesses
// in B, §III.A). The wrapper lives in internal/faults, which imports
// this package, so the test is an external one.
func TestFaultInjector(t *testing.T) {
	const n = 9
	run := func(wrap func(device.Device) device.Device) (device.Device, sim.Time, int) {
		e := sim.NewEngine(1)
		d := wrap(device.NewRAMDisk(e, "ram", 1<<30, sim.Microsecond, 1e9))
		var errs int
		e.Spawn("test", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				err := d.Access(p, device.Request{Offset: int64(i) * 4096, Size: 4096})
				if err == nil {
					continue
				}
				if !errors.Is(err, device.ErrInjectedFault) {
					t.Errorf("access %d: unexpected error %v", i, err)
				}
				errs++
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return d, e.Now(), errs
	}

	plain, plainEnd, _ := run(func(d device.Device) device.Device { return d })
	d, end, errs := run(func(d device.Device) device.Device { return faults.NewEveryNth(d, 3) })
	if errs != 3 {
		t.Fatalf("injected %d faults, want 3", errs)
	}
	s := d.Stats()
	if s.Errors != 3 {
		t.Fatalf("Stats.Errors = %d, want 3", s.Errors)
	}
	if s.Reads != n || s.BytesRead != n*4096 {
		t.Fatalf("stats = %+v, faulted ops should still be serviced", s)
	}
	if end != plainEnd || d.BusyTime() != plain.BusyTime() {
		t.Fatalf("end %v busy %v, want %v and %v as without faults",
			end, d.BusyTime(), plainEnd, plain.BusyTime())
	}
}
