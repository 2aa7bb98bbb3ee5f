package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		name  string
		stack [][]string
		want  string
	}{
		{
			name: "inlined runtime frame inside the LRU",
			stack: [][]string{
				{"runtime.mapaccess2", "bps/internal/ioreq.(*LRU[go.shape.int64]).Insert"},
				{"bps/internal/fsim.(*FileSystem).cachedTransfer"},
				{"bps/internal/sim.(*domain).run"},
			},
			want: "ioreq",
		},
		{
			name: "runtime leaf under a sim hand-off",
			stack: [][]string{
				{"runtime.chansend1"},
				{"bps/internal/sim.(*Proc).park"},
				{"runtime.goexit"},
			},
			want: "sim",
		},
		{
			name:  "nested package folds into its module",
			stack: [][]string{{"bps/internal/obs/attrib.(*Collector).AddSpan"}},
			want:  "obs",
		},
		{
			name:  "repo module outside the named layers",
			stack: [][]string{{"bps/internal/testbed.NewLocalEnv"}},
			want:  "other",
		},
		{
			name:  "benchmark's own code",
			stack: [][]string{{"runtime.nanotime"}, {"main.timedFile.ReadAt"}},
			want:  "other",
		},
		{
			name:  "background GC only",
			stack: [][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker.func2"}, {"runtime.gcBgMarkWorker"}},
			want:  bucketGC,
		},
		{
			name:  "scheduler only",
			stack: [][]string{{"runtime.futex"}, {"runtime.findRunnable"}, {"runtime.schedule"}, {"runtime.mcall"}},
			want:  bucketRuntime,
		},
		{
			name:  "empty stack",
			stack: nil,
			want:  bucketRuntime,
		},
	}
	var samples []sample
	for i, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("%s: bucket %q, want %q", c.name, got, c.want)
		}
		samples = append(samples, sample{stack: c.stack, ticks: 1, cpuNS: int64(i+1) * 10_000_000})
	}

	buckets, total := bucketize(samples)
	var want, sum int64
	for _, s := range samples {
		want += s.cpuNS
	}
	for name, ns := range buckets {
		if name != bucketGC && name != bucketRuntime && !contains(cpuLayers, name) {
			t.Errorf("bucket %q is not a reported layer", name)
		}
		sum += ns
	}
	if total != want || sum != total {
		t.Errorf("buckets sum to %d ns, total %d ns, samples hold %d ns", sum, total, want)
	}
	if got := ticks(samples); got != int64(len(samples)) {
		t.Errorf("ticks = %d, want %d", got, len(samples))
	}
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// TestDecodeProfile decodes a real profile written by runtime/pprof: the
// goroutine profile has the same encoding as a CPU profile and always
// holds this test's own stack.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeProfile(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "not a CPU profile") {
		t.Fatalf("decoding a goroutine profile: err = %v, want a not-a-CPU-profile error", err)
	}
	samples, err := decodeSamples(buf.Bytes(), "goroutine", "goroutine")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, loc := range s.stack {
			for _, fn := range loc {
				if strings.HasSuffix(fn, "TestDecodeProfile") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("no sample holds TestDecodeProfile among %d samples", len(samples))
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Fatal("decoded garbage without error")
	}
}
