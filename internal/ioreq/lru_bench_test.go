package ioreq_test

import (
	"math/rand/v2"
	"testing"

	"bps/internal/ioreq"
	"bps/internal/testbed"
)

// serverCachePages is one I/O server's page cache in 4 KiB pages, the
// capacity the fsim cache runs at in the paper's testbed.
const serverCachePages = testbed.ServerCacheBytes / 4096

// BenchmarkPageLRUSequentialHits looks up 16-page ranges of a resident
// set, the pattern of a sequential re-read of 64 KiB records. One op is
// one 16-page range.
func BenchmarkPageLRUSequentialHits(b *testing.B) {
	const resident = 4096
	c := ioreq.NewPageLRU(serverCachePages)
	c.InsertRange(0, 0, resident)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i*16) % resident
		for pg := lo; pg < lo+16; pg++ {
			if !c.Lookup(0, pg) {
				b.Fatal("resident page missed")
			}
		}
	}
}

// BenchmarkPageLRURandom is single-page lookup-or-insert at uniformly
// random pages over twice the cache's capacity: about half the
// lookups miss and evict. The cache is filled to steady state first.
func BenchmarkPageLRURandom(b *testing.B) {
	c := ioreq.NewPageLRU(serverCachePages)
	rng := rand.New(rand.NewPCG(1, 2))
	step := func() {
		pg := rng.Int64N(2 * serverCachePages)
		if !c.Lookup(0, pg) {
			c.Insert(0, pg)
		}
	}
	for i := 0; i < 4*serverCachePages; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
