package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/tpcc"
	"repro/internal/xgroup"
)

// forEach fans fn(0..n-1) over GOMAXPROCS goroutines. The equivalence test
// below runs dozens of independent models; each is single-threaded and
// deterministic, so parallel execution changes nothing but wall clock.
// (internal/expr has the same helper, but core tests cannot import it.)
func forEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		feed <- i
	}
	close(feed)
	wg.Wait()
}

// TestAggregateEquivalenceCI95 is the tentpole acceptance criterion: at 500
// clients the aggregate arrival-process tier must reproduce the
// individual-client workload within CI95 on every headline metric — tpmC,
// abort rate, mean and p95 latency — for both protocol variants. The two
// modes are different realizations of the same stochastic workload, so the
// pin is CI overlap over replicated runs, not per-seed equality:
//
//	|mean_individual − mean_aggregate| ≤ CI95_individual + CI95_aggregate
//
// which a systematic bias (like the warmup-pool bias the unfired pool
// exists to remove) reliably trips at these sample sizes.
func TestAggregateEquivalenceCI95(t *testing.T) {
	if testing.Short() {
		t.Skip("32 replicated 5000-txn runs; skipped in -short")
	}
	const (
		reps    = 8
		clients = 500
		txns    = 5000
	)
	for _, proto := range Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			runs := make([]*Results, 2*reps) // [0,reps) individual, [reps,2reps) aggregate
			errs := make([]error, 2*reps)
			forEach(2*reps, func(i int) {
				cfg := Config{
					Sites:     3,
					Clients:   clients,
					TotalTxns: txns,
					Protocol:  proto,
					Seed:      4200 + int64(i%reps)*77,
				}
				if i >= reps {
					cfg.AggregateClients = 1
				}
				m, err := New(cfg)
				if err != nil {
					errs[i] = err
					return
				}
				runs[i], errs[i] = m.Run()
			})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			ind := AggregateRuns(runs[:reps])
			agg := AggregateRuns(runs[reps:])
			for _, c := range []struct {
				name string
				a, b Stat
			}{
				{"tpmC", ind.TPM, agg.TPM},
				{"abort rate %", ind.AbortRatePct, agg.AbortRatePct},
				{"mean latency ms", ind.MeanLatencyMS, agg.MeanLatencyMS},
				{"p95 latency ms", ind.P95LatencyMS, agg.P95LatencyMS},
			} {
				diff := c.a.Mean - c.b.Mean
				if diff < 0 {
					diff = -diff
				}
				if tol := c.a.CI95 + c.b.CI95; diff > tol {
					t.Errorf("%s: individual %s vs aggregate %s — means %.2f apart, CI95 overlap allows %.2f",
						c.name, c.a, c.b, diff, tol)
				} else {
					t.Logf("%-16s individual %-14s aggregate %-14s |Δ| %.2f ≤ %.2f",
						c.name, c.a, c.b, diff, tol)
				}
			}
			// The aggregate runs must have carried the full budget through the
			// identical submission path, not a truncated or duplicated one.
			for i := reps; i < 2*reps; i++ {
				if runs[i].Issued != txns {
					t.Errorf("aggregate rep %d issued %d txns, want %d", i-reps, runs[i].Issued, txns)
				}
			}
		})
	}
}

// TestAggregateSameSeedSameResults extends the determinism guard to the
// aggregate tier across every client-placement mode — round-robin and
// replication groups — since each mode uses a different dense-index→warehouse
// closure and RNG wiring.
func TestAggregateSameSeedSameResults(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"round-robin", Config{Sites: 3, Clients: 120, TotalTxns: 300, Seed: 7, AggregateClients: 1}},
		{"grouped", Config{Groups: 3, Sites: 2, Clients: 120, TotalTxns: 300, Seed: 7, AggregateClients: 1}},
		{"admission", Config{Sites: 3, Clients: 120, TotalTxns: 300, Seed: 7, AggregateClients: 1,
			Admission: DefaultAdmissionConfig()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *Results {
				m, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(m.aggs) == 0 {
					t.Fatal("aggregate threshold not honored: no aggregate tier built")
				}
				if len(m.clients) != 0 {
					t.Fatal("aggregate mode still built individual clients")
				}
				r, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			a, b := run(), run()
			if a.Issued != b.Issued || a.Committed != b.Committed || a.Aborted != b.Aborted {
				t.Fatalf("counts diverge: %d/%d/%d vs %d/%d/%d",
					a.Issued, a.Committed, a.Aborted, b.Issued, b.Committed, b.Aborted)
			}
			if a.Duration != b.Duration || a.Events != b.Events {
				t.Fatalf("run shape diverges: duration %v/%v events %d/%d",
					a.Duration, b.Duration, a.Events, b.Events)
			}
			if a.TPM != b.TPM || a.AbortRatePct != b.AbortRatePct {
				t.Fatalf("headline metrics diverge: tpm %v/%v abort %v/%v",
					a.TPM, b.TPM, a.AbortRatePct, b.AbortRatePct)
			}
			if a.LatCommitted.N() != b.LatCommitted.N() || a.LatCommitted.Mean() != b.LatCommitted.Mean() {
				t.Fatalf("latency sample diverges: n=%d/%d mean=%v/%v",
					a.LatCommitted.N(), b.LatCommitted.N(), a.LatCommitted.Mean(), b.LatCommitted.Mean())
			}
			if !reflect.DeepEqual(a.Classes, b.Classes) {
				t.Fatalf("class breakdown diverges:\n%+v\nvs\n%+v", a.Classes, b.Classes)
			}
			if a.SafetyErr != nil {
				t.Fatalf("safety: %v", a.SafetyErr)
			}
		})
	}
}

// TestAggregatePlacement pins the dense-index→home-warehouse closures
// against the individual tier's placement rules: the per-site populations
// must partition the client count exactly, and the multiset of home
// warehouses reached by a site's dense indices must equal the multiset of
// home warehouses of the individual clients placed at that site — including
// the partial trailing warehouse block.
func TestAggregatePlacement(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		// siteOf replicates the individual tier's placement: client i → site index.
		siteOf func(cfg Config, i int) int
	}{
		{"round-robin", Config{Sites: 3, Clients: 127, AggregateClients: 1},
			func(cfg Config, i int) int { return i % cfg.Sites }},
		{"grouped", Config{Groups: 3, Sites: 2, Clients: 127, AggregateClients: 1},
			func(cfg Config, i int) int {
				return xgroup.HomeSite(i/tpcc.ClientsPerWarehouse, cfg.Groups, cfg.Sites) - 1
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Per-site home-warehouse multisets under the individual rule.
			want := make([]map[int]int, len(m.sites))
			pops := make([]int, len(m.sites))
			for i := 0; i < tc.cfg.Clients; i++ {
				s := tc.siteOf(tc.cfg, i)
				if want[s] == nil {
					want[s] = make(map[int]int)
				}
				want[s][i/tpcc.ClientsPerWarehouse]++
				pops[s]++
			}
			total := 0
			for _, a := range m.aggs {
				total += a.Population
				siteIdx := -1
				for idx, s := range m.sites {
					if s.Server == a.Server {
						siteIdx = idx
						break
					}
				}
				if siteIdx < 0 {
					t.Fatal("aggregate attached to an unknown server")
				}
				if a.Population != pops[siteIdx] {
					t.Errorf("site %d population %d, individual placement puts %d clients there",
						siteIdx+1, a.Population, pops[siteIdx])
				}
				got := make(map[int]int)
				for k := 0; k < a.Population; k++ {
					got[a.HomeWH(k)]++
				}
				if !reflect.DeepEqual(got, want[siteIdx]) {
					t.Errorf("site %d home-warehouse multiset diverges from individual placement:\n got %v\nwant %v",
						siteIdx+1, got, want[siteIdx])
				}
			}
			if total != tc.cfg.Clients {
				t.Errorf("aggregate populations sum to %d, want %d", total, tc.cfg.Clients)
			}
		})
	}
}

// TestAggregateThresholdGate pins the Config.AggregateClients contract:
// below the threshold the model builds individual clients, at or above it
// the aggregate tier, and zero disables aggregation entirely.
func TestAggregateThresholdGate(t *testing.T) {
	mk := func(clients, threshold int) *Model {
		m, err := New(Config{Sites: 3, Clients: clients, AggregateClients: threshold})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := mk(90, 0); len(m.aggs) != 0 || len(m.clients) != 90 {
		t.Fatalf("threshold 0 must disable aggregation: aggs=%d clients=%d", len(m.aggs), len(m.clients))
	}
	if m := mk(90, 91); len(m.aggs) != 0 || len(m.clients) != 90 {
		t.Fatalf("below threshold must use individual clients: aggs=%d clients=%d", len(m.aggs), len(m.clients))
	}
	if m := mk(90, 90); len(m.aggs) != 3 || len(m.clients) != 0 {
		t.Fatalf("at threshold must use the aggregate tier: aggs=%d clients=%d", len(m.aggs), len(m.clients))
	}
}
