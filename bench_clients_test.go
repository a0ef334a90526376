package repro

// Aggregate client tier benchmarks: the population sweep of `experiments
// clients` at fixed transaction budget. CI runs these with -json into
// BENCH.json so the scaling claim of the aggregate arrival-process
// tier is tracked per commit: events/s, wall clock normalized per simulated
// minute, and allocations, from 10^3 to 10^6 emulated users on 3 sites.
// Memory and startup cost must stay O(sites + in-flight) — a population
// regression shows up as allocs/op or wall-clock exploding with the client
// count.

import (
	"testing"
	"time"

	"repro/internal/core"
)

// clientsCfg builds one population point: 3 sites, aggregate tier forced on,
// admission control bounding the overload the larger populations offer.
func clientsCfg(clients int) core.Config {
	return core.Config{
		Sites:            3,
		CPUsPerSite:      1,
		Clients:          clients,
		AggregateClients: 1,
		Admission:        core.DefaultAdmissionConfig(),
		TotalTxns:        2000,
	}
}

// reportClients attaches the scaling envelope: throughput, and host wall
// clock normalized by the simulated duration (the figure of merit for
// simulating long windows of very large populations).
func reportClients(r *core.Results, b *testing.B) {
	b.ReportMetric(r.TPM, "tpm")
	b.ReportMetric(r.MeanLatencyMS, "lat-ms")
	if simMin := r.Duration.Seconds() / 60; simMin > 0 {
		b.ReportMetric(float64(b.Elapsed())/float64(time.Second)/simMin, "wall-s/sim-min")
	}
	requireNoDrops(r, b)
}

func BenchmarkClients1k(b *testing.B) {
	benchRun(b, clientsCfg(1_000), reportClients)
}

func BenchmarkClients10k(b *testing.B) {
	benchRun(b, clientsCfg(10_000), reportClients)
}

func BenchmarkClients100k(b *testing.B) {
	benchRun(b, clientsCfg(100_000), reportClients)
}

func BenchmarkClients1M(b *testing.B) {
	benchRun(b, clientsCfg(1_000_000), reportClients)
}

// BenchmarkClientsIndividual1k is the comparison point the aggregate tier
// replaces: the same 10^3-client workload built from per-client objects.
// (Larger individual populations are exactly what the tier exists to avoid.)
func BenchmarkClientsIndividual1k(b *testing.B) {
	cfg := clientsCfg(1_000)
	cfg.AggregateClients = 0
	benchRun(b, cfg, reportClients)
}
