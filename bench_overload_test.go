package repro

// Overload benchmarks: the replicated workload pushed past its admission
// capacity — compressed think time, sustained saturation, a gray-failed
// (never-suspected) slow site — under both termination variants. CI runs
// these with -json into BENCH.json so the overload envelope is
// tracked per commit: throughput under pressure, how much the admission
// gate sheds, how hard clients retry, and the transmit-queue high-water
// mark that the flow-control bound must keep under 1 MiB.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/tpcc"
)

// reportOverload attaches the overload envelope to a benchmark: shed and
// retry volume next to throughput, and the bounded-queue gauge.
func reportOverload(r *core.Results, b *testing.B) {
	b.ReportMetric(r.TPM, "tpm")
	b.ReportMetric(r.MeanLatencyMS, "lat-ms")
	b.ReportMetric(float64(r.Rejected), "rejected")
	b.ReportMetric(float64(r.Retries), "retries")
	b.ReportMetric(float64(r.GCS.QueuePeakBytes)/1024, "queuepeak-KB")
	if r.GCS.QueuePeakBytes > 1<<20 {
		b.Fatalf("transmit queue peaked at %d bytes, past the 1 MiB bound", r.GCS.QueuePeakBytes)
	}
}

// overloadCfg drives the closed loop well past a deliberately tight
// admission cap; factor > 1 additionally compresses think time mid-run via
// the saturation fault, and slowSite (when nonzero) degrades one site 10x
// without making it suspect.
func overloadCfg(p core.Protocol, factor float64, slowSite int32) core.Config {
	cal := tpcc.DefaultCalibration()
	cal.ThinkTime = 300 * sim.Millisecond
	cfg := core.Config{
		Sites: 3, CPUsPerSite: 1, Clients: 90,
		Protocol:    p,
		Calibration: cal,
		Admission: &core.AdmissionConfig{
			MaxActivePerSite: 4,
			BacklogHigh:      96,
			BacklogLow:       32,
			Retry: tpcc.RetryPolicy{
				MaxAttempts: 4,
				BaseBackoff: 20 * sim.Millisecond,
				MaxBackoff:  500 * sim.Millisecond,
			},
		},
	}
	if factor > 1 {
		cfg.Faults.Saturation = faults.Saturation{Factor: factor, At: sim.Second}
	}
	if slowSite != 0 {
		cfg.Faults.SlowNodes = []faults.SlowNode{{Site: slowSite, Factor: 10, At: 2 * sim.Second}}
	}
	return cfg
}

func BenchmarkOverloadConservative(b *testing.B) {
	benchRun(b, overloadCfg(core.ProtocolConservative, 1, 0), reportOverload)
}

func BenchmarkOverloadOptimistic(b *testing.B) {
	benchRun(b, overloadCfg(core.ProtocolOptimistic, 1, 0), reportOverload)
}

func BenchmarkOverloadConservativeSat2x(b *testing.B) {
	benchRun(b, overloadCfg(core.ProtocolConservative, 2, 0), reportOverload)
}

func BenchmarkOverloadOptimisticSat2x(b *testing.B) {
	benchRun(b, overloadCfg(core.ProtocolOptimistic, 2, 0), reportOverload)
}

func BenchmarkOverloadConservativeGraySequencer(b *testing.B) {
	benchRun(b, overloadCfg(core.ProtocolConservative, 2, 1), reportOverload)
}

func BenchmarkOverloadOptimisticGraySequencer(b *testing.B) {
	benchRun(b, overloadCfg(core.ProtocolOptimistic, 2, 1), reportOverload)
}
