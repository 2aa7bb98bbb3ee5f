package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared virtual hosts whose speed drifts by tens
// of percent within minutes, even in CPU time. To keep two runs of the
// same code comparable, every timed interval is paired with a probe: a
// fixed, allocation-free job run right before it on every CPU. Times are
// then reported in reference seconds, the time the work would take on a
// host where the probe takes refProbe of CPU time. The probe runs only
// benchmark code, so no change to the repository can speed it up or
// slow it down.
const refProbe = 100 * time.Millisecond

// Probe sizes: a sort that stays in cache, and a pointer chase through
// a 16 MiB cycle that does not.
const (
	probeSortLen  = 1 << 19
	probeChaseLen = 1 << 22
	probeSteps    = 1 << 19
)

// prober holds one probe job per CPU the Go scheduler may use.
type prober struct {
	jobs []*probeJob
}

// probeJob's slices live outside the Go heap (see offHeap).
type probeJob struct {
	data, buf, next []uint32
	end             uint32
}

func newProber() (*prober, error) {
	p := &prober{jobs: make([]*probeJob, runtime.GOMAXPROCS(0))}
	for i := range p.jobs {
		j, err := newProbeJob(uint32(2*i + 1))
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		p.jobs[i] = j
	}
	return p, nil
}

// newProbeJob fills a job from a xorshift stream: data to sort, and next
// as one random cycle over all its indices (Sattolo's shuffle).
func newProbeJob(seed uint32) (*probeJob, error) {
	x := seed
	rnd := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	var j probeJob
	for _, s := range []struct {
		dst *[]uint32
		n   int
	}{{&j.data, probeSortLen}, {&j.buf, probeSortLen}, {&j.next, probeChaseLen}} {
		b, err := offHeap(s.n)
		if err != nil {
			return nil, err
		}
		*s.dst = b
	}
	for i := range j.data {
		j.data[i] = rnd()
	}
	for i := range j.next {
		j.next[i] = uint32(i)
	}
	for i := len(j.next) - 1; i > 0; i-- {
		k := rnd() % uint32(i)
		j.next[i], j.next[k] = j.next[k], j.next[i]
	}
	return &j, nil
}

// offHeap maps n zeroed words of anonymous memory. The garbage collector
// neither scans nor counts it, so the probe does not change the heap size
// that paces the collections of the code under test. The mapping lives
// as long as the process.
func offHeap(n int) ([]uint32, error) {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), n), nil
}

func (j *probeJob) run() {
	copy(j.buf, j.data)
	slices.Sort(j.buf)
	at := uint32(0)
	for i := 0; i < probeSteps; i++ {
		at = j.next[at]
	}
	j.end = at
}

// measure runs every job at once and returns the CPU time per job.
func (p *prober) measure() time.Duration {
	c0 := cpuTime()
	var wg sync.WaitGroup
	wg.Add(len(p.jobs))
	for _, j := range p.jobs {
		go func(j *probeJob) {
			defer wg.Done()
			j.run()
		}(j)
	}
	wg.Wait()
	return (cpuTime() - c0) / time.Duration(len(p.jobs))
}

// refSeconds converts a CPU time measured next to a probe reading into
// reference seconds.
func refSeconds(cpu, probe time.Duration) float64 {
	return cpu.Seconds() * refProbe.Seconds() / probe.Seconds()
}
