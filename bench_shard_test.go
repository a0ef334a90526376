package repro

// Partial-replication benchmarks: the group-count sweep of `experiments
// shard` at reduced scale. CI runs these with -json into BENCH.json so
// the scaling headroom of per-warehouse replication groups is tracked per
// commit: aggregate committed throughput against the single-group baseline,
// the multi-group share paying the cross-group commit round, and that
// round's retransmit volume. The 9-site full-replication point is the wall
// the groups remove — same offered load, one total order.

import (
	"testing"

	"repro/internal/core"
)

// reportShard attaches the partial-replication envelope: aggregate
// throughput, the committed share that spanned groups, and the cross-group
// round's retransmit and handover counters.
func reportShard(r *core.Results, b *testing.B) {
	b.ReportMetric(r.TPM, "tpm")
	b.ReportMetric(r.MeanLatencyMS, "lat-ms")
	b.ReportMetric(r.MultiGroupPct, "multigroup-%")
	b.ReportMetric(float64(r.XRetries), "xretries")
	b.ReportMetric(float64(r.XHandovers), "xhandovers")
	requireNoDrops(r, b)
}

// shardCfg builds one grid point at equal per-site resources: one CPU and 50
// clients per site, transaction budget growing with the site count so every
// point runs a comparable measurement window.
func shardCfg(groups, sitesPerGroup int, p core.Protocol) core.Config {
	total := groups * sitesPerGroup
	return core.Config{
		Sites:       sitesPerGroup,
		Groups:      groups,
		CPUsPerSite: 1,
		Clients:     50 * total,
		Protocol:    p,
		TotalTxns:   1000 * total / sitesPerGroup,
	}
}

func BenchmarkShardGroups1Conservative(b *testing.B) {
	benchRun(b, shardCfg(1, 3, core.ProtocolConservative), reportShard)
}

func BenchmarkShardGroups3Conservative(b *testing.B) {
	benchRun(b, shardCfg(3, 3, core.ProtocolConservative), reportShard)
}

func BenchmarkShardGroups1Optimistic(b *testing.B) {
	benchRun(b, shardCfg(1, 3, core.ProtocolOptimistic), reportShard)
}

func BenchmarkShardGroups3Optimistic(b *testing.B) {
	benchRun(b, shardCfg(3, 3, core.ProtocolOptimistic), reportShard)
}

// BenchmarkShardFullReplication9 is the comparison wall: nine sites in one
// replication group, every site applying every write through one total
// order.
func BenchmarkShardFullReplication9(b *testing.B) {
	benchRun(b, shardCfg(1, 9, core.ProtocolConservative), reportShard)
}
