package bench

import "testing"

// BenchmarkE13 exposes the E13 measurement to `go test -bench`: each
// sub-benchmark runs one scheme with 16 concurrent TCP clients and
// b.N total operations. The interesting output is the ops/s metric
// (the full sweep with latency percentiles is `tcvs-bench -e E13`).
func BenchmarkE13(b *testing.B) {
	for _, s := range e13Schemes() {
		b.Run(s.name+"/c=16", func(b *testing.B) {
			const clients = 16
			total := b.N
			if total < clients {
				total = clients
			}
			res, _, err := e13Run(s, 1000, clients, total)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(res.pooled()))/res.elapsed.Seconds(), "ops/s")
		})
	}
}
