package core_test

import (
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/gcs"
	"repro/internal/sim"
)

// horizonTasks mirrors the replicated configurations of the experiments
// tables at their -fast sizes (500 transactions per point): the Figure 5/6
// sweep's replicated rows, Figures 7 and Table 2's loss rows, the protocol
// comparison, the overload ladder, the shard sweep, and the recovery rows
// (longer, so the rejoin happens under load).
func horizonTasks() []expr.Task {
	var tasks []expr.Task
	add := func(label string, cfg core.Config) {
		if cfg.TotalTxns == 0 {
			cfg.TotalTxns = 500
		}
		cfg.Seed = 1
		tasks = append(tasks, expr.Task{Label: label, Config: cfg})
	}
	for _, sites := range []int{3, 6} {
		for _, clients := range []int{100, 500, 1000, 1500, 2000} {
			add(fmt.Sprintf("sweep/%dsites/%dc", sites, clients),
				core.Config{Sites: sites, CPUsPerSite: 1, Clients: clients})
		}
	}
	smallPool := func(c *gcs.Config) { c.BufferBytes = 96 * 1024 }
	losses := []struct {
		label string
		loss  faults.Loss
	}{
		{"no-loss", faults.Loss{}},
		{"random", faults.Loss{Kind: faults.LossRandom, Rate: 0.05}},
		{"bursty", faults.Loss{Kind: faults.LossBursty, Rate: 0.05, MeanBurst: 5}},
	}
	for _, l := range losses {
		for _, clients := range []int{750, 1000} {
			add(fmt.Sprintf("faults/%s/%dc", l.label, clients), core.Config{
				Sites: 3, CPUsPerSite: 1, Clients: clients,
				Faults: faults.Config{Loss: l.loss}, GCSTweak: smallPool,
			})
		}
	}
	for _, p := range core.Protocols() {
		for _, l := range losses[:2] {
			for _, clients := range []int{300, 900} {
				add(fmt.Sprintf("protocols/%s/%s/%dc", p, l.label, clients), core.Config{
					Sites: 3, CPUsPerSite: 1, Clients: clients, Protocol: p,
					Faults: faults.Config{Loss: l.loss}, GCSTweak: smallPool,
				})
			}
		}
		for _, f := range []float64{1, 2, 3} {
			fc := faults.Config{}
			if f > 1 {
				fc.Saturation = faults.Saturation{Factor: f, At: 10 * sim.Second}
			}
			add(fmt.Sprintf("overload/%s/x%.0f", p, f), core.Config{
				Sites: 3, Clients: 300, Protocol: p, Faults: fc,
				Admission: core.DefaultAdmissionConfig(),
			})
		}
		for _, groups := range []int{1, 3} {
			add(fmt.Sprintf("shard/%s/%dgroups", p, groups), core.Config{
				Sites: 3, Groups: groups, CPUsPerSite: 1, Clients: 150 * groups,
				Protocol: p, TotalTxns: 500 * groups,
			})
		}
		for _, site := range []int32{1, 3} {
			// 2000 transactions keep traffic flowing past the rejoin at
			// 30 s, so the joiner imports a live window and replays a
			// delta; 500 would all finish before the crash.
			add(fmt.Sprintf("recovery/%s/site%d", p, site), core.Config{
				Sites: 3, Clients: 300, Protocol: p, TotalTxns: 2000,
				Faults: faults.Config{
					Crashes:  []faults.Crash{{Site: site, At: 15 * sim.Second}},
					Recovers: []faults.Recover{{Site: site, At: 30 * sim.Second}},
				},
			})
		}
	}
	return tasks
}

// campaignTasks builds a short randomized fault campaign per protocol, as
// faultsim -short runs it: a classic crash-and-rejoin campaign and a
// three-group campaign.
func campaignTasks() []expr.Task {
	var tasks []expr.Task
	for _, p := range core.Protocols() {
		base := core.Config{
			Sites: 3, Clients: 60, TotalTxns: 300, Protocol: p,
			MaxSimTime: 20 * sim.Minute,
			Admission:  core.DefaultAdmissionConfig(),
		}
		params := campaign.Params{Sites: 3, Rejoin: true, Horizon: 15 * sim.Second}
		tasks = append(tasks, campaign.Tasks(campaign.Plan(1, 4, params), base)...)
		base.Groups = 3
		params = campaign.Params{Sites: 3, Groups: 3, Horizon: 15 * sim.Second}
		tasks = append(tasks, campaign.Tasks(campaign.Plan(1, 4, params), base)...)
	}
	return tasks
}

// TestHorizonNeverStaleAborts pins the horizon invariant end to end: a
// transaction's snapshot is never below the pruning horizon, so the
// pruned-window abort never fires — across the experiments configurations
// and fault campaigns — and in a fault-free run every site keeps sending,
// so the MaxHistory cap never binds.
func TestHorizonNeverStaleAborts(t *testing.T) {
	tasks := append(horizonTasks(), campaignTasks()...)
	pts, err := (&expr.Runner{Workers: 2, Reps: 1}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		for _, r := range p.Agg.Runs {
			if r.SafetyErr != nil {
				t.Errorf("%s: safety: %v", p.Task.Label, r.SafetyErr)
			}
			if r.StaleAborts != 0 {
				t.Errorf("%s: %d stale aborts, want 0", p.Task.Label, r.StaleAborts)
			}
			if !p.Task.Config.Faults.Any() && r.HistoryCapHits != 0 {
				t.Errorf("%s: fault-free run hit the history cap %d times", p.Task.Label, r.HistoryCapHits)
			}
			if len(p.Task.Config.Faults.Recovers) > 0 && r.DeltaApplied == 0 {
				t.Errorf("%s: the rejoin replayed no delta: recovery went unexercised", p.Task.Label)
			}
		}
	}
}

// maxHistoryLen runs the paper-3site configuration (3 sites, 500 clients,
// conservative, no faults) for txns transactions and reports, per replica,
// the largest retained certifier history seen at any 100 ms sample.
func maxHistoryLen(t *testing.T, txns int) []int {
	t.Helper()
	m, err := core.New(core.Config{
		Sites: 3, CPUsPerSite: 1, Clients: 500, TotalTxns: txns,
		Protocol: core.ProtocolConservative, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	peak := make([]int, len(m.Sites()))
	var sample func()
	sample = func() {
		for i, s := range m.Sites() {
			peak[i] = max(peak[i], s.Replica.Certifier().HistoryLen())
		}
		m.Kernel().Schedule(100*sim.Millisecond, sample)
	}
	m.Kernel().Schedule(100*sim.Millisecond, sample)
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.SafetyErr != nil || r.StaleAborts != 0 || r.HistoryCapHits != 0 {
		t.Fatalf("%d txns: safety %v, %d stale aborts, %d cap hits",
			txns, r.SafetyErr, r.StaleAborts, r.HistoryCapHits)
	}
	return peak
}

// TestHistoryFlatOverRunLength pins the point of horizon pruning: the
// retained certifier window is set by the transactions in flight, not by
// how long the run lasts. Quadrupling the run leaves each replica's peak
// window the same to within a small constant, far below the cap.
func TestHistoryFlatOverRunLength(t *testing.T) {
	const slack = 32 // lag peaks vary by a few dozen between runs
	short, long := maxHistoryLen(t, 1500), maxHistoryLen(t, 6000)
	for i := range short {
		if short[i] == 0 || long[i] > short[i]+slack || long[i] > 1000 {
			t.Fatalf("site %d: peak history %d at 1500 txns, %d at 6000 (want within %d, far below the cap)",
				i+1, short[i], long[i], slack)
		}
	}
	t.Logf("peak history per site: %v at 1500 txns, %v at 6000", short, long)
}
