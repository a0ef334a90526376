package core

import (
	"testing"
)

// The wall-clock profiler (the paper's actual measurement mode) must produce
// a complete, safe run even though timings become non-deterministic.
func TestWallProfilerRun(t *testing.T) {
	r := run(t, Config{Sites: 3, Clients: 30, TotalTxns: 150, Seed: 32, UseWallProfiler: true})
	if r.SafetyErr != nil {
		t.Fatalf("safety: %v", r.SafetyErr)
	}
	if r.Committed < 100 {
		t.Fatalf("committed = %d", r.Committed)
	}
	if r.CPURealUtilPct <= 0 {
		t.Fatal("wall profiler measured no protocol CPU")
	}
}

// Warehouses override decouples database scale from client count.
func TestWarehousesOverride(t *testing.T) {
	// One warehouse for 100 clients: extreme contention on its hot rows.
	hot := run(t, Config{Sites: 1, Clients: 100, TotalTxns: 500, Seed: 33, Warehouses: 1})
	spread := run(t, Config{Sites: 1, Clients: 100, TotalTxns: 500, Seed: 33, Warehouses: 50})
	if hot.AbortRatePct <= spread.AbortRatePct {
		t.Fatalf("1 warehouse should conflict more than 50: %.2f%% vs %.2f%%",
			hot.AbortRatePct, spread.AbortRatePct)
	}
}
