package repro

// Ablation benchmarks for the design choices the paper discusses:
//
//   - buffer pool size (Section 5.3: "mitigated by increasing available
//     buffer space")
//   - full replication at six sites (Section 5.2: the disk bottleneck)
//   - dissemination mode (IP multicast vs unicast fallback, Section 3.4)

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gcs"
)

func BenchmarkAblationBufferSmall(b *testing.B) {
	cfg := core.Config{
		Sites: 3, Clients: 500, Faults: lossy(),
		GCSTweak: func(c *gcs.Config) { c.BufferBytes = 48 * 1024 },
	}
	benchRun(b, cfg, func(r *core.Results, b *testing.B) {
		b.ReportMetric(float64(r.GCS.Blocked), "blocked")
		b.ReportMetric(r.CertLat.Quantile(0.99), "cert-p99-ms")
	})
}

func BenchmarkAblationBufferLarge(b *testing.B) {
	cfg := core.Config{
		Sites: 3, Clients: 500, Faults: lossy(),
		GCSTweak: func(c *gcs.Config) { c.BufferBytes = 1 << 20 },
	}
	benchRun(b, cfg, func(r *core.Results, b *testing.B) {
		b.ReportMetric(float64(r.GCS.Blocked), "blocked")
		b.ReportMetric(r.CertLat.Quantile(0.99), "cert-p99-ms")
	})
}

func BenchmarkAblationFullReplication(b *testing.B) {
	cfg := core.Config{Sites: 6, Clients: 600}
	benchRun(b, cfg, func(r *core.Results, b *testing.B) {
		b.ReportMetric(r.DiskUtilPct, "disk-%")
		b.ReportMetric(r.TPM, "tpm")
	})
}

func BenchmarkAblationUnicastFallback(b *testing.B) {
	cfg := core.Config{
		Sites: 3, Clients: 300,
		GCSTweak: func(c *gcs.Config) { c.UseMulticast = false },
	}
	benchRun(b, cfg, func(r *core.Results, b *testing.B) {
		b.ReportMetric(r.NetKBps, "net-KB/s")
	})
}
