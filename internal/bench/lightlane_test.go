package bench

import (
	"testing"
	"time"

	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/stats"
)

// BenchmarkA11LightLane measures BENCH_workloads.json's
// light_lane_isolation_ms: each iteration is one A11 live leg (the full
// RSA-2048/modp2048 blend of 182 shuffled ops through phiadmit into the
// two-card, one-worker fleet), and every op's host wall latency, from its
// DoWork call to its checked result, joins its class's sample. It reports
// the public (light) and heavy p50 and p99 over all legs, in ms:
//
//	go test ./internal/bench -run '^$' -bench A11LightLane -benchtime 5x
//
// Building the blend (inputs checked on the scalar reference engine) runs
// before the timer starts.
func BenchmarkA11LightLane(b *testing.B) {
	blend := newA11Blend(Options{Seed: 1})
	var light, heavy []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, lat := blend.live()
		light = append(light, lat[phiwork.ClassLight]...)
		heavy = append(heavy, lat[phiwork.ClassHeavy]...)
	}
	b.StopTimer()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	l, h := stats.Summarize(light), stats.Summarize(heavy)
	b.ReportMetric(ms(l.P50), "public_p50_ms")
	b.ReportMetric(ms(l.P99), "public_p99_ms")
	b.ReportMetric(ms(h.P50), "heavy_p50_ms")
	b.ReportMetric(ms(h.P99), "heavy_p99_ms")
}
