package repro

// Protocol-comparison benchmarks: the same replicated workload under the
// conservative and optimistic termination variants, fault-free and under
// loss. CI runs these with -json into BENCH.json so regressions in
// the optimistic pipeline (decide latency creeping up, rollbacks exploding,
// throughput diverging between variants) are tracked per commit.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// reportProtocol attaches the certification-latency split and the
// speculation accounting to a protocol benchmark.
func reportProtocol(r *core.Results, b *testing.B) {
	b.ReportMetric(r.TPM, "tpm")
	b.ReportMetric(r.MeanLatencyMS, "lat-ms")
	b.ReportMetric(r.MeanCertDecideMS, "cert-decide-ms")
	b.ReportMetric(r.CertLat.Mean(), "cert-final-ms")
	b.ReportMetric(float64(r.Rollbacks), "rollbacks")
	b.ReportMetric(r.OptMispredictPct, "mispred-%")
	requireNoDrops(r, b)
}

func protocolCfg(p core.Protocol, loss faults.Loss) core.Config {
	return core.Config{
		Sites: 3, CPUsPerSite: 1, Clients: 500,
		Protocol: p,
		Faults:   faults.Config{Loss: loss},
	}
}

func BenchmarkProtocolConservative(b *testing.B) {
	benchRun(b, protocolCfg(core.ProtocolConservative, faults.Loss{}), reportProtocol)
}

func BenchmarkProtocolOptimistic(b *testing.B) {
	benchRun(b, protocolCfg(core.ProtocolOptimistic, faults.Loss{}), reportProtocol)
}

func BenchmarkProtocolConservativeLoss5(b *testing.B) {
	benchRun(b, protocolCfg(core.ProtocolConservative,
		faults.Loss{Kind: faults.LossRandom, Rate: 0.05}), reportProtocol)
}

func BenchmarkProtocolOptimisticLoss5(b *testing.B) {
	benchRun(b, protocolCfg(core.ProtocolOptimistic,
		faults.Loss{Kind: faults.LossRandom, Rate: 0.05}), reportProtocol)
}
