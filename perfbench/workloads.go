package main

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// workload is one named benchmark input. The benchmark hands the program only
// the core.Config built here; every random stream derives from the seed.
// README.md records why each workload was chosen and which layers it loads.
type workload struct {
	Name string
	// config builds the run's configuration for a seed.
	config func(seed int64) core.Config
	// mechanism reports an error when the run did not exercise the
	// mechanism the workload exists to load.
	mechanism func(r *core.Results) error
	// pool is the number of model runs, at seeds derived from the
	// benchmark seed, whose simulated figures one benchmark run pools. A
	// single model run's p99.9 and abort rate rest on about ten and a
	// hundred transactions; pooling keeps their seed-to-seed spread small.
	pool int
}

// minCommitted keeps at least ten committed samples beyond p99.9.
const minCommitted = 10000

var workloads = []workload{
	{
		// The paper's reference point: 3 sites x 1 CPU, 500 individual
		// closed-loop clients, conservative protocol, no faults.
		Name: "paper-3site",
		config: func(seed int64) core.Config {
			return core.Config{
				Sites: 3, CPUsPerSite: 1, Clients: 500,
				TotalTxns: 11000,
				Protocol:  core.ProtocolConservative,
				Seed:      seed,
			}
		},
		mechanism: func(*core.Results) error { return nil },
		pool:      16,
	},
	{
		// 5 sites, optimistic protocol, 5% random loss, site 4 crashed
		// at 60 s and recovered at 90 s of simulated time.
		Name: "faults-5site-opt",
		config: func(seed int64) core.Config {
			return core.Config{
				Sites: 5, CPUsPerSite: 1, Clients: 500,
				TotalTxns: 11000,
				Protocol:  core.ProtocolOptimistic,
				Seed:      seed,
				Faults: faults.Config{
					Loss:     faults.Loss{Kind: faults.LossRandom, Rate: 0.05},
					Crashes:  []faults.Crash{{Site: 4, At: 60 * sim.Second}},
					Recovers: []faults.Recover{{Site: 4, At: 90 * sim.Second}},
				},
			}
		},
		mechanism: func(r *core.Results) error {
			if r.Recoveries != 1 {
				return fmt.Errorf("%d recoveries, want exactly 1", r.Recoveries)
			}
			return nil
		},
		pool: 8,
	},
	{
		// 3 groups x 3 sites, 8000 aggregate clients (about 2x the
		// offered load the groups sustain), default admission control.
		Name: "groups-overload",
		config: func(seed int64) core.Config {
			return core.Config{
				Sites: 3, Groups: 3, CPUsPerSite: 1,
				Clients: 8000, AggregateClients: 1,
				TotalTxns: 24000,
				Protocol:  core.ProtocolConservative,
				Admission: core.DefaultAdmissionConfig(),
				Seed:      seed,
			}
		},
		mechanism: func(r *core.Results) error {
			if r.MultiGroupTxns == 0 || r.Rejected == 0 {
				return fmt.Errorf("multi-group txns %d, rejected %d: both must be non-zero",
					r.MultiGroupTxns, r.Rejected)
			}
			return nil
		},
		pool: 8,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// gate is the correctness check every run passes through: the safety
// verdict, the integrity counters, the workload's own mechanism, and enough
// commits for the p99.9 latency to have ten samples beyond it.
func gate(w workload, r *core.Results) error {
	var errs []error
	if r.SafetyErr != nil {
		errs = append(errs, fmt.Errorf("safety: %w", r.SafetyErr))
	}
	for _, c := range []struct {
		name string
		n    int64
	}{
		{"inconsistencies", r.Inconsistencies},
		{"cert drops", r.CertDrops},
		{"gcs parse errors", r.GCS.ParseErrors},
		{"rejoin violations", r.RejoinViolations},
	} {
		if c.n != 0 {
			errs = append(errs, fmt.Errorf("%s: %d", c.name, c.n))
		}
	}
	if err := w.mechanism(r); err != nil {
		errs = append(errs, fmt.Errorf("mechanism: %w", err))
	}
	if r.Committed < minCommitted {
		errs = append(errs, fmt.Errorf("committed %d < %d", r.Committed, minCommitted))
	}
	return errors.Join(errs...)
}

// modelSeeds derives the model seeds one benchmark run pools; distinct
// benchmark seeds never share a model seed.
func (w workload) modelSeeds(seed int64) []int64 {
	seeds := make([]int64, w.pool)
	for j := range seeds {
		seeds[j] = seed*int64(w.pool) + int64(j)
	}
	return seeds
}

// simFigures are one model run's simulated-clock results. They are exact at
// a fixed seed: two runs of one seed that disagree expose nondeterminism,
// not noise.
type simFigures struct {
	Seed         int64   `json:"seed"`
	Submitted    int64   `json:"submitted"`
	Committed    int64   `json:"committed"`
	Aborted      int64   `json:"aborted"`
	DurationNS   int64   `json:"duration_ns"`
	Events       int64   `json:"events"`
	CommitP50MS  float64 `json:"commit_p50_ms"`
	CommitP999MS float64 `json:"commit_p999_ms"`
	Recoveries   int     `json:"recoveries"`
	RecoveryMS   float64 `json:"recovery_ms"`
}

func figuresOf(seed int64, r *core.Results) simFigures {
	return simFigures{
		Seed:         seed,
		Submitted:    r.Submitted,
		Committed:    r.Committed,
		Aborted:      r.Aborted,
		DurationNS:   int64(r.Duration),
		Events:       r.Events,
		CommitP50MS:  r.LatCommitted.Quantile(0.5),
		CommitP999MS: r.LatCommitted.Quantile(0.999),
		Recoveries:   r.Recoveries,
		RecoveryMS:   r.MeanRecoveryMS,
	}
}

// pooled holds the simulated-clock metrics over a run's sub-runs.
type pooled struct {
	tpm, p50, p999, abortPct, failPct, recoveryMS float64
	committed                                     int64
}

// pool combines sub-runs as one long run would: counts and simulated time
// add up, and latency quantiles come from the union of the samples.
func pool(figs []simFigures, lats [][]float64) pooled {
	var sub, com, ab, ns int64
	var rec int
	var recMS float64
	var all metrics.Sample
	for i, f := range figs {
		sub += f.Submitted
		com += f.Committed
		ab += f.Aborted
		ns += f.DurationNS
		rec += f.Recoveries
		recMS += f.RecoveryMS * float64(f.Recoveries)
		for _, v := range lats[i] {
			all.Add(v)
		}
	}
	p := pooled{
		p50:       all.Quantile(0.5),
		p999:      all.Quantile(0.999),
		abortPct:  pct(ab, com+ab),
		failPct:   pct(sub-com, sub),
		committed: com,
	}
	if ns > 0 {
		p.tpm = float64(com) / (sim.Time(ns).Seconds() / 60)
	}
	if rec > 0 {
		p.recoveryMS = recMS / float64(rec)
	}
	return p
}

// pct is 100*n/d, 0 when d is 0.
func pct(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}
