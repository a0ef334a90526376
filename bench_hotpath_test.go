package repro

// Hot-path benchmarks for the simulation critical loop, the subject of the
// cross-layer performance overhaul (indexed certification, pooled event
// scheduler, zero-copy wire buffers). CI runs these with -json into
// BENCH.json, alongside the protocol, overload, shard and clients benches,
// so simulator throughput regressions are tracked per commit.
//
// BenchmarkHotpath* report events/s aggregated over every iteration (total
// kernel events over total wall time), which is stable against per-iteration
// jitter; the run length (3000 transactions) keeps model construction a
// small fraction of the measurement, as it is in real experiment runs
// (10000 transactions per grid point).

import (
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dbsm"
	"repro/internal/sim"
)

// hotpathCfg is the fault-free default configuration the ≥2x events/s
// acceptance target is measured on: the paper's 3-site replicated TPC-C at
// 500 clients, conservative termination, no fault load.
func hotpathCfg(p core.Protocol) core.Config {
	return core.Config{
		Sites: 3, CPUsPerSite: 1, Clients: 500,
		TotalTxns: 3000,
		Protocol:  p,
	}
}

// benchHotpath runs one model per iteration and reports aggregate events/s.
func benchHotpath(b *testing.B, cfg core.Config) {
	b.Helper()
	var events int64
	var tpm float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(42 + i)
		r := benchModel(b, cfg)
		requireNoDrops(r, b)
		events += r.Events
		tpm = r.TPM
	}
	b.ReportMetric(float64(events)/(b.Elapsed().Seconds()+1e-9), "events/s")
	b.ReportMetric(tpm, "tpm")
}

func BenchmarkHotpathConservative(b *testing.B) {
	benchHotpath(b, hotpathCfg(core.ProtocolConservative))
}

func BenchmarkHotpathOptimistic(b *testing.B) {
	benchHotpath(b, hotpathCfg(core.ProtocolOptimistic))
}

// BenchmarkHotpathCertifier measures certification cost per transaction at
// varying concurrent-history depths: the indexed certifier stays
// O(|ReadSet|) while the reference scan grows linearly with depth. Every
// transaction's snapshot lags `depth` behind the current sequence, so the
// scan certifier examines `depth` write-sets per certification.
func BenchmarkHotpathCertifier(b *testing.B) {
	for _, mode := range []string{"indexed", "scan"} {
		for _, depth := range []int{100, 1000, 10000} {
			b.Run(mode+"/depth-"+strconv.Itoa(depth), func(b *testing.B) {
				rng := sim.NewRNG(7)
				var c *dbsm.Certifier
				if mode == "scan" {
					c = dbsm.NewScanCertifier()
				} else {
					c = dbsm.NewCertifier()
				}
				c.MaxHistory = depth + 1
				mkSet := func(n, space int) dbsm.ItemSet {
					ids := make([]dbsm.TupleID, n)
					for i := range ids {
						ids[i] = dbsm.MakeTupleID(uint16(rng.Intn(9)+1), uint64(rng.Intn(space)))
					}
					return dbsm.NewItemSet(ids...)
				}
				// Pre-populate history to the target depth with
				// disjoint write-sets (high row space: few conflicts).
				for i := 0; c.HistoryLen() < depth; i++ {
					c.Certify(&dbsm.TxnCert{
						TID: uint64(i), WriteSet: mkSet(10, 1<<28),
						LastCommitted: c.Seq(),
					})
				}
				reads := mkSet(100, 1<<28)
				writes := mkSet(10, 1<<28)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					snapshot := uint64(0)
					if s := c.Seq(); s > uint64(depth) {
						snapshot = s - uint64(depth)
					}
					c.Certify(&dbsm.TxnCert{
						TID: uint64(depth + i), ReadSet: reads, WriteSet: writes,
						LastCommitted: snapshot,
					})
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/txn")
			})
		}
	}
}

// BenchmarkHotpathKernel measures the bare event-loop dispatch rate:
// schedule plus pop of one event, the unit everything else is built from.
func BenchmarkHotpathKernel(b *testing.B) {
	k := sim.NewKernel()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(sim.Microsecond, fn)
		k.Step()
	}
	b.ReportMetric(float64(b.N)/(b.Elapsed().Seconds()+1e-9), "events/s")
}
