package fsim

import (
	"testing"

	"bps/internal/sim"
)

// BenchmarkCachedTransfer times the page-cache protocol for one 64 KiB
// read on a RAM disk: "hit" rereads a resident 4 MiB region, and "miss"
// streams over four times the cache so every read misses and evicts.
func BenchmarkCachedTransfer(b *testing.B) {
	const cacheBytes, size = 16 << 20, 64 << 10
	for _, bc := range []struct {
		name   string
		region int64
	}{{"hit", 4 << 20}, {"miss", 4 * cacheBytes}} {
		b.Run(bc.name, func(b *testing.B) {
			e := sim.NewEngine(1)
			fs := newRAMFS(e, Config{CacheBytes: cacheBytes})
			e.Spawn("bench", func(p *sim.Proc) {
				read := func(i int) bool {
					err := fs.cachedTransfer(p, int64(i)*size%bc.region, size, false)
					if err != nil {
						b.Error(err)
					}
					return err == nil
				}
				for i := 0; i < int(bc.region/size); i++ {
					if !read(i) {
						return
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !read(i) {
						return
					}
				}
			})
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
