package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
)

// outDir holds the benchmark's binary, its determinism records and the span
// files of traced runs, relative to the repository root.
const outDir = ".bench_build/perfbench"

// setupSamples is the least number of model constructions setup_s is the
// median of.
const setupSamples = 31

// runResult is one construction and run of the model.
type runResult struct {
	setup, run time.Duration
	res        *core.Results
	model      *core.Model
}

// runOnce builds and runs one model. Each repetition starts from a collected
// heap so that one run's garbage is not billed to the next. prepare, if set,
// sees the model between construction and Run (the traced run installs its
// packet hook there).
func runOnce(cfg core.Config, sp *spans, prepare func(*core.Model)) (runResult, error) {
	runtime.GC()
	var out runResult
	end := sp.begin("core.New")
	t0 := time.Now()
	m, err := core.New(cfg)
	out.setup = time.Since(t0)
	end()
	if err != nil {
		return out, fmt.Errorf("core.New: %w", err)
	}
	if prepare != nil {
		prepare(m)
	}
	end = sp.begin("Model.Run")
	t1 := time.Now()
	r, err := m.Run()
	out.run = time.Since(t1)
	end()
	if err != nil {
		return out, fmt.Errorf("Model.Run: %w", err)
	}
	out.res, out.model = r, m
	return out, nil
}

// repeater runs one workload over a cycle of model seeds, gating each run
// and checking that every repetition of a seed reproduces that seed's first
// run exactly.
type repeater struct {
	w       workload
	seeds   []int64
	figs    []simFigures // first run of each seed, in seed order
	lats    [][]float64  // committed latencies of those runs
	reps    int
	failed  int
	runs    []float64 // Model.Run seconds
	setups  []float64 // core.New seconds
	lastRes runResult
}

func newRepeater(w workload, seeds ...int64) *repeater {
	return &repeater{w: w, seeds: seeds}
}

// once performs one gated repetition of the next seed in the cycle. A
// construction or run error aborts the benchmark; a gate failure or
// nondeterminism is counted and reported.
func (rp *repeater) once(sp *spans, prepare func(*core.Model)) error {
	j := rp.reps % len(rp.seeds)
	seed := rp.seeds[j]
	rr, err := runOnce(rp.w.config(seed), sp, prepare)
	if err != nil {
		return err
	}
	rp.reps++
	rp.runs = append(rp.runs, rr.run.Seconds())
	rp.setups = append(rp.setups, rr.setup.Seconds())
	rp.lastRes = rr
	fig := figuresOf(seed, rr.res)
	if err := gate(rp.w, rr.res); err != nil {
		rp.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d failed the correctness gate: %v\n", rp.w.Name, seed, err)
	}
	if j == len(rp.figs) {
		rp.figs = append(rp.figs, fig)
		rp.lats = append(rp.lats, rr.res.LatCommitted.Values())
		if err := checkRecord(rp.w.Name, fig); err != nil {
			rp.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	} else if fig != rp.figs[j] {
		rp.failed++
		fmt.Fprintf(os.Stderr, "perfbench: NONDETERMINISM: %s seed %d: %+v, first run %+v\n",
			rp.w.Name, seed, fig, rp.figs[j])
	}
	return nil
}

// until repeats until the budget is spent, never stopping below min
// repetitions and never starting a repetition the budget cannot hold.
func (rp *repeater) until(budget time.Duration, min int, sp *spans, prepare func(*core.Model)) error {
	start := time.Now()
	for n := 0; ; n++ {
		if n >= min {
			left := budget - time.Since(start)
			if left < time.Duration(median(rp.runs)*float64(time.Second)) {
				return nil
			}
		}
		if err := rp.once(sp, prepare); err != nil {
			return err
		}
	}
}

// runEndToEnd measures the end-to-end metrics with no observation installed.
func runEndToEnd(w workload, seed int64, budget time.Duration) (report, error) {
	seeds := w.modelSeeds(seed)
	rp := newRepeater(w, seeds...)
	if err := rp.until(budget, len(seeds), nil, nil); err != nil {
		return report{}, err
	}
	// Top up the construction samples: core.New is short, so its median
	// needs more samples than the run loop yields.
	for i := 0; len(rp.setups) < setupSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := core.New(w.config(seeds[i%len(seeds)])); err != nil {
			return report{}, fmt.Errorf("core.New: %w", err)
		}
		rp.setups = append(rp.setups, time.Since(t0).Seconds())
	}

	p := pool(rp.figs, rp.lats)
	fmt.Printf("runs: %d over %d seeds, run_s %s, setup_s %s\n", rp.reps, len(seeds), spread(rp.runs), spread(rp.setups))
	fmt.Printf("committed n=%d (%d beyond p99.9)\n", p.committed, p.committed/1000)
	return report{
		Correct:   rp.failed == 0,
		Attempted: rp.reps,
		Failed:    rp.failed,
		Metrics: map[string]metric{
			"run_s":              {median(rp.runs), "s"},
			"setup_s":            {median(rp.setups), "s"},
			"max_rss_mb":         {maxRSSMB(), "MB"},
			"sim_tpm":            {p.tpm, "1/min"},
			"sim_commit_p50_ms":  {p.p50, "ms"},
			"sim_commit_p999_ms": {p.p999, "ms"},
			"sim_abort_pct":      {p.abortPct, "%"},
			"fail_pct":           {p.failPct, "%"},
		},
	}, nil
}

// maxRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread renders a sample's median and range.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("median %.4g [%.4g..%.4g] n=%d", median(s), s[0], s[len(s)-1], len(s))
}

// checkRecord compares a seed's simulated figures with those an earlier
// process of the same binary recorded, and records them when none exist: a
// model that is deterministic within one process can still diverge across
// processes.
func checkRecord(name string, fig simFigures) error {
	id, err := binaryID()
	if err != nil {
		return fmt.Errorf("determinism record: %w", err)
	}
	path := filepath.Join(outDir, "figures", fmt.Sprintf("%s-%s-seed%d.json", id, name, fig.Seed))
	want, err := json.Marshal(fig)
	if err != nil {
		return err
	}
	got, err := os.ReadFile(path)
	switch {
	case err == nil:
		if !bytes.Equal(bytes.TrimSpace(got), want) {
			return fmt.Errorf("NONDETERMINISM: %s seed %d: figures %s, an earlier process recorded %s",
				name, fig.Seed, want, bytes.TrimSpace(got))
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, append(want, '\n'), 0o644)
	default:
		return err
	}
}

// binaryID is a short hash of the running executable, so records written by
// an older build of the program are never compared with a newer one.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
