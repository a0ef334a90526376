package repro

// One benchmark per table and figure of the paper's evaluation, at reduced
// scale so `go test -bench=.` finishes in minutes. The full-scale
// regeneration is cmd/experiments. Custom metrics (tpm, abort %, latency
// percentiles) are attached via b.ReportMetric, so each bench prints the
// series the corresponding figure plots.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dbsm"
	"repro/internal/faults"
	"repro/internal/gcs"
	"repro/internal/sim"
)

// --- Figure 3: CSRT validation micro-benchmark -----------------------------

// BenchmarkFig3FloodSend measures the simulated socket-write path that
// Figure 3(a) calibrates: cost of injecting a 1 KB datagram.
func BenchmarkFig3FloodSend(b *testing.B) {
	k := sim.NewKernel()
	rng := sim.NewRNG(1)
	net := newBenchNet(k, rng)
	rt := net.rt1
	payload := make([]byte, 1000)
	sent := 0
	rt.CPUs().SubmitReal(func() {
		for i := 0; i < b.N; i++ {
			if rt.Send(2, payload) == nil {
				sent++
			}
		}
	}, nil)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if sent != b.N {
		b.Fatalf("sent %d of %d", sent, b.N)
	}
}

// --- Figure 4: model validation run ----------------------------------------

func BenchmarkFig4Validation(b *testing.B) {
	benchRun(b, core.Config{Sites: 1, Clients: 20, TotalTxns: 500},
		func(r *core.Results, b *testing.B) {
			b.ReportMetric(r.LatReadOnly.Quantile(0.5), "ro-p50-ms")
			b.ReportMetric(r.LatUpdate.Quantile(0.5), "upd-p50-ms")
		})
}

// --- Figure 5: throughput / latency / abort rate ----------------------------

func BenchmarkFig5Centralized1CPU(b *testing.B) {
	benchRun(b, core.Config{Sites: 1, CPUsPerSite: 1, Clients: 500}, reportPerf)
}

func BenchmarkFig5Centralized3CPU(b *testing.B) {
	benchRun(b, core.Config{Sites: 1, CPUsPerSite: 3, Clients: 1000}, reportPerf)
}

func BenchmarkFig5Centralized6CPU(b *testing.B) {
	benchRun(b, core.Config{Sites: 1, CPUsPerSite: 6, Clients: 1500}, reportPerf)
}

func BenchmarkFig5Replicated3Sites(b *testing.B) {
	benchRun(b, core.Config{Sites: 3, CPUsPerSite: 1, Clients: 1000}, reportPerf)
}

func BenchmarkFig5Replicated6Sites(b *testing.B) {
	benchRun(b, core.Config{Sites: 6, CPUsPerSite: 1, Clients: 1500}, reportPerf)
}

// --- Figure 6: resource usage ----------------------------------------------

func BenchmarkFig6Usage3Sites(b *testing.B) {
	benchRun(b, core.Config{Sites: 3, CPUsPerSite: 1, Clients: 1000}, reportUsage)
}

func BenchmarkFig6Usage6CPU(b *testing.B) {
	benchRun(b, core.Config{Sites: 1, CPUsPerSite: 6, Clients: 2000}, reportUsage)
}

// --- Table 1: abort-rate breakdown -----------------------------------------

func BenchmarkTable1Baseline500(b *testing.B) {
	benchRun(b, core.Config{Sites: 1, CPUsPerSite: 1, Clients: 500},
		func(r *core.Results, b *testing.B) {
			b.ReportMetric(classAbort(r, "payment-long"), "payment-long-%")
			b.ReportMetric(classAbort(r, "neworder"), "neworder-%")
		})
}

func BenchmarkTable1Replicated3x1000(b *testing.B) {
	benchRun(b, core.Config{Sites: 3, CPUsPerSite: 1, Clients: 1000},
		func(r *core.Results, b *testing.B) {
			b.ReportMetric(classAbort(r, "payment-long"), "payment-long-%")
			b.ReportMetric(r.AbortRatePct, "all-%")
		})
}

// --- Figure 7 / Table 2: fault loads ----------------------------------------

func faultCfg(loss faults.Loss) core.Config {
	return core.Config{
		Sites: 3, CPUsPerSite: 1, Clients: 750,
		Faults:   faults.Config{Loss: loss},
		GCSTweak: func(c *gcs.Config) { c.BufferBytes = 96 * 1024 },
	}
}

func reportFault(r *core.Results, b *testing.B) {
	b.ReportMetric(r.CertLat.Quantile(0.9), "cert-p90-ms")
	b.ReportMetric(r.CertLat.Quantile(0.99), "cert-p99-ms")
	b.ReportMetric(r.CPURealUtilPct, "proto-cpu-%")
	b.ReportMetric(r.AbortRatePct, "abort-%")
}

func BenchmarkFig7NoFaults(b *testing.B) {
	benchRun(b, faultCfg(faults.Loss{}), reportFault)
}

func BenchmarkFig7RandomLoss(b *testing.B) {
	benchRun(b, faultCfg(faults.Loss{Kind: faults.LossRandom, Rate: 0.05}), reportFault)
}

func BenchmarkFig7BurstyLoss(b *testing.B) {
	benchRun(b, faultCfg(faults.Loss{Kind: faults.LossBursty, Rate: 0.05, MeanBurst: 5}), reportFault)
}

func BenchmarkTable2RandomLoss1000(b *testing.B) {
	cfg := faultCfg(faults.Loss{Kind: faults.LossRandom, Rate: 0.05})
	cfg.Clients = 1000
	benchRun(b, cfg, func(r *core.Results, b *testing.B) {
		b.ReportMetric(classAbort(r, "delivery"), "delivery-%")
		b.ReportMetric(classAbort(r, "payment-long"), "payment-long-%")
		b.ReportMetric(r.AbortRatePct, "all-%")
	})
}

// --- protocol and substrate micro-benchmarks --------------------------------

func BenchmarkItemSetIntersect(b *testing.B) {
	rng := sim.NewRNG(2)
	mk := func(n int) dbsm.ItemSet {
		ids := make([]dbsm.TupleID, n)
		for i := range ids {
			ids[i] = dbsm.MakeTupleID(uint16(rng.Intn(9)+1), uint64(rng.Intn(1<<24)))
		}
		return dbsm.NewItemSet(ids...)
	}
	x, y := mk(100), mk(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Intersects(y)
	}
}

func BenchmarkCertMarshalRoundTrip(b *testing.B) {
	rng := sim.NewRNG(3)
	ids := make([]dbsm.TupleID, 100)
	for i := range ids {
		ids[i] = dbsm.MakeTupleID(uint16(rng.Intn(9)+1), uint64(rng.Intn(1<<24)))
	}
	tc := &dbsm.TxnCert{
		TID: 1, Site: 2, LastCommitted: 10,
		ReadSet: dbsm.NewItemSet(ids...), WriteSet: dbsm.NewItemSet(ids[:20]...),
		WriteBytes: 3000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := tc.Marshal()
		if _, err := dbsm.Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers -----------------------------------------------------------------

func newBenchNet(k *sim.Kernel, rng *sim.RNG) *benchNet {
	net := newSimNetPair(k, rng)
	return net
}
