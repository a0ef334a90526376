package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/simnet"
	"repro/internal/tpcc"
)

// profiledLayers are the layers whose host time the traced run reports: the
// packages under internal/ that the workloads execute, this benchmark's own
// hooks, and "other" for any remaining internal package. "runtime" (samples
// with no repo frame) is reported as runtime.gc_ms.
var profiledLayers = []string{
	"sim", "simnet", "gcs", "dbsm", "db", "csrt", "replica", "tpcc",
	"xgroup", "recovery", "check", "core", "metrics", "trace", "perfbench", "other",
}

// Shares of the traced run's budget: an untraced reference for the
// overhead ratio, the profiled repetitions, and the layer drivers.
const (
	untracedShare = 0.25
	profiledShare = 0.45
)

// netProbe is the packet hook installed on the simulated network after
// core.New. Besides counting packets it samples the kernel's pending-event
// depth, which shapes the sim driver's heap.
type netProbe struct {
	sends, sendBytes int64
	depthSum, depthN int64
}

func (p *netProbe) hook(m *core.Model) func(simnet.TraceRecord) {
	k := m.Kernel()
	return func(r simnet.TraceRecord) {
		if r.Event != simnet.TraceSend {
			return
		}
		p.sends++
		p.sendBytes += int64(r.Size)
		if p.sends%64 == 0 {
			p.depthSum += int64(k.Pending())
			p.depthN++
		}
	}
}

// runTraced measures the per-layer metrics.
func runTraced(w workload, seed int64, budget time.Duration, host hostInfo) (report, error) {
	start := time.Now()

	// One model seed, the benchmark seed's first sub-run: its counters are
	// exact and repeat on every traced run of the seed. Untraced reference
	// repetitions come first, for the overhead ratio.
	modelSeed := w.modelSeeds(seed)[0]
	plain := newRepeater(w, modelSeed)
	if err := plain.until(time.Duration(untracedShare*float64(budget)), 1, nil, nil); err != nil {
		return report{}, err
	}

	// Profiled repetitions with the packet hook installed.
	sp := newSpans()
	endRoot := sp.begin("workload " + w.Name)
	traced := newRepeater(w, modelSeed)
	var probe *netProbe // the current repetition's
	var allocBytes, gcCycles uint64
	var before runtime.MemStats
	prepare := func(m *core.Model) {
		probe = &netProbe{}
		m.Network().SetTracer(probe.hook(m))
		runtime.ReadMemStats(&before)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	for n := 0; ; n++ {
		if n >= 1 && time.Since(start) > time.Duration((untracedShare+profiledShare)*float64(budget))-
			time.Duration(median(traced.runs)*float64(time.Second)) {
			break
		}
		if err := traced.once(sp, prepare); err != nil {
			pprof.StopCPUProfile()
			return report{}, err
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		allocBytes += after.TotalAlloc - before.TotalAlloc
		gcCycles += uint64(after.NumGC - before.NumGC)
	}
	pprof.StopCPUProfile()
	byLayer, err := attributeProfile(prof.Bytes())
	if err != nil {
		return report{}, err
	}

	rr := traced.lastRes
	r := rr.res
	if traced.figs[0] != plain.figs[0] {
		traced.failed++
		fmt.Fprintf(os.Stderr, "perfbench: NONDETERMINISM: traced figures %+v, untraced %+v\n", traced.figs[0], plain.figs[0])
	}

	// Layer drivers, shaped by the traced run.
	in := shapeDrivers(w, modelSeed, rr, probe)
	ms := map[string]metric{}
	driverBudget := budget - time.Since(start)
	if floor := time.Duration(len(drivers)) * 50 * time.Millisecond; driverBudget < floor {
		driverBudget = floor
	}
	endDrivers := sp.begin("drivers")
	for _, d := range drivers {
		end := sp.begin("driver " + d.name)
		res, err := d.run(in, driverBudget/time.Duration(len(drivers)))
		end()
		if err != nil {
			return report{}, fmt.Errorf("driver %s: %w", d.name, err)
		}
		ms[d.name+"_ns"+d.per] = metric{res.nsPerOp, "ns"}
		ms[d.name+"_allocs"+d.per] = metric{res.allocsPerOp, "count"}
	}
	endDrivers()
	endRoot()

	// Profile attribution, normalised to one repetition.
	reps := float64(traced.reps)
	var totalNS int64
	for _, ns := range byLayer {
		totalNS += ns
	}
	known := map[string]bool{"runtime": true}
	for _, l := range profiledLayers {
		known[l] = true
	}
	for l, ns := range byLayer {
		if !known[l] {
			byLayer["other"] += ns
		}
	}
	selfMS := func(l string) float64 { return float64(byLayer[l]) / 1e6 / reps }
	nsPer := func(l string, base int64) float64 {
		if base == 0 {
			return 0
		}
		return selfMS(l) * 1e6 / float64(base)
	}
	for _, l := range profiledLayers {
		ms[l+".self_ms"] = metric{selfMS(l), "ms"}
		ms[l+".share_pct"] = metric{pct(byLayer[l], totalNS), "%"}
	}
	ms["runtime.gc_ms"] = metric{selfMS("runtime"), "ms"}
	ms["runtime.share_pct"] = metric{pct(byLayer["runtime"], totalNS), "%"}
	ms["runtime.alloc_mb"] = metric{float64(allocBytes) / (1 << 20) / reps, "MB"}
	ms["runtime.gc_cycles"] = metric{float64(gcCycles) / reps, "count"}

	var dropped int64
	for _, s := range rr.model.Sites() {
		dropped += s.Host.Dropped()
	}
	fig := traced.figs[0]
	counts := map[string]float64{
		"sim.events":     float64(r.Events),
		"simnet.packets": float64(probe.sends),
		"simnet.dropped": float64(dropped),

		"gcs.sent":           float64(r.GCS.Sent),
		"gcs.retransmits":    float64(r.GCS.Retransmits),
		"gcs.nacks":          float64(r.GCS.Nacks),
		"gcs.delivered":      float64(r.GCS.Delivered),
		"gcs.view_changes":   float64(r.GCS.ViewChanges),
		"gcs.uniform_stalls": float64(r.GCS.UniformStalls),
		"gcs.credit_stalls":  float64(r.GCS.CreditStalls),
		"gcs.flow_rejected":  float64(r.GCS.FlowRejected),

		"replica.tentative":    float64(r.Tentative),
		"replica.rollbacks":    float64(r.Rollbacks),
		"replica.recertified":  float64(r.Recertified),
		"replica.backlog_peak": float64(r.BacklogPeak),

		"tpcc.submissions": float64(r.Submitted),
		"tpcc.rejected":    float64(r.Rejected),
		"tpcc.retries":     float64(r.Retries),
		"tpcc.giveups":     float64(r.GiveUps),

		"xgroup.multigroup_txns": float64(r.MultiGroupTxns),
		"xgroup.vetoes":          float64(r.XVetoes),
		"xgroup.retries":         float64(r.XRetries),

		"recovery.delta_applied": float64(r.DeltaApplied),
		"sim_commit_n":           float64(fig.Committed),
	}
	for n, v := range counts {
		ms[n] = metric{v, "count"}
	}
	ms["sim.ns_per_event"] = metric{nsPer("sim", r.Events), "ns"}
	ms["simnet.kbps"] = metric{r.NetKBps, "KB/s"}
	ms["gcs.ns_per_delivery"] = metric{nsPer("gcs", r.GCS.Delivered), "ns"}
	ms["gcs.blocked_ms"] = metric{r.GCS.BlockedTime.Millis(), "ms"}
	ms["dbsm.ns_per_delivery"] = metric{nsPer("dbsm", r.GCS.Delivered), "ns"}
	ms["dbsm.cert_decide_ms"] = metric{r.MeanCertDecideMS, "ms"}
	ms["db.cpu_util_pct"] = metric{r.CPUUtilPct, "%"}
	ms["db.cpu_real_util_pct"] = metric{r.CPURealUtilPct, "%"}
	ms["db.disk_util_pct"] = metric{r.DiskUtilPct, "%"}
	ms["replica.preapply_wasted_pct"] = metric{pct(r.PreApplyWasted, r.PreApplied), "%"}
	ms["tpcc.ns_per_submission"] = metric{nsPer("tpcc", r.Submitted), "ns"}
	ms["tpcc.commit_yield_pct"] = metric{pct(r.Committed, r.Submitted), "%"}
	ms["xgroup.multigroup_pct"] = metric{r.MultiGroupPct, "%"}
	ms["recovery.transfer_mb"] = metric{float64(r.TransferBytes) / (1 << 20), "MB"}
	ms["recovery.downtime_ms"] = metric{r.MeanDowntimeMS, "ms"}
	ms["sim_recovery_ms"] = metric{fig.RecoveryMS, "ms"}

	tracedRun, plainRun := median(traced.runs), median(plain.runs)
	ms["traced_run_s"] = metric{tracedRun, "s"}
	ms["untraced_run_s"] = metric{plainRun, "s"}
	ms["trace_overhead"] = metric{tracedRun / plainRun, "ratio"}

	fmt.Printf("traced runs: %d (untraced %d), run_s traced %s, untraced %s\n",
		traced.reps, plain.reps, spread(traced.runs), spread(plain.runs))
	fmt.Printf("layers by host share: %s\n", ranking(byLayer, totalNS))
	base := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d", w.Name, seed))
	if err := sp.write(base+".spans.json", host, ms); err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return report{}, fmt.Errorf("write profile: %w", err)
	}
	fmt.Printf("spans and cpu profile: %s.{spans.json,cpu.pprof}\n", base)

	failed := plain.failed + traced.failed
	return report{
		Correct:   failed == 0,
		Attempted: plain.reps + traced.reps,
		Failed:    failed,
		Metrics:   ms,
	}, nil
}

// ranking renders the layers in decreasing host share.
func ranking(byLayer map[string]int64, total int64) string {
	type ls struct {
		name string
		ns   int64
	}
	var list []ls
	for _, l := range append([]string{"runtime"}, profiledLayers...) {
		if byLayer[l] > 0 {
			list = append(list, ls{l, byLayer[l]})
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].ns > list[j].ns })
	out := ""
	for i, e := range list {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s %.0f%%", e.name, pct(e.ns, total))
	}
	return out
}

// shapeDrivers derives the drivers' input shapes from the traced run.
func shapeDrivers(w workload, seed int64, rr runResult, p *netProbe) driverInput {
	r := rr.res
	in := driverInput{
		seed:       seed,
		warehouses: tpcc.Warehouses(w.config(seed).Clients),
		aggregate:  w.config(seed).AggregateClients > 0,
		depth:      1,
		packet:     64,
		// Every workload replicates, and site 1 never crashes.
		history:  rr.model.Sites()[0].Replica.Certifier().HistoryLen(),
		inflight: 1,
	}
	if p.depthN > 0 {
		in.depth = int(p.depthSum / p.depthN)
	}
	if p.sends > 0 {
		in.packet = int(p.sendBytes / p.sends)
	}
	// Little's law: transactions in flight at one site.
	sites := float64(len(rr.model.Sites()))
	if n := int(math.Round(r.TPM / 60 / sites * r.MeanLatencyMS / 1000)); n > 1 {
		in.inflight = n
	}
	// One log set per replication group; Group is 0 under full replication.
	for i, s := range rr.model.Sites() {
		g := r.Sites[i].Group
		for len(in.logs) <= g {
			in.logs = append(in.logs, nil)
		}
		in.logs[g] = append(in.logs[g], check.SiteLog{
			Site:        s.ID,
			Operational: s.Life.State() == recovery.StateUp && !s.Stack.Stopped(),
			Recovered:   s.Life.Recoveries() > 0,
			Entries:     s.Replica.CommitLog().Entries(),
		})
	}
	return in
}
