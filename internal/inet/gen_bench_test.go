package inet

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkWorldGenerate measures world synthesis at the default-world
// scale: the legacy sequential builder against the sharded streaming
// builder at 1, 4 and GOMAXPROCS shards (workers matched to shards).
// Generation only — no deployment, no snapshot I/O. The sharded/shards=1
// case isolates the columnar/arena rewrite; the multi-shard cases add
// parallel fan-out on top (flat on a single-core host, near-linear on
// multi-core ones).
func BenchmarkWorldGenerate(b *testing.B) {
	b.Run("legacy", func(b *testing.B) {
		cfg := scenarioConfig("default", 42)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Generate(cfg)
		}
	})
	shardCounts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		shardCounts = append(shardCounts, n)
	}
	for _, sh := range shardCounts {
		b.Run(fmt.Sprintf("sharded/shards=%d", sh), func(b *testing.B) {
			cfg := scenarioConfig("default", 42)
			cfg.Sharded = true
			cfg.Shards = sh
			cfg.GenWorkers = sh
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Generate(cfg)
			}
		})
	}
}
