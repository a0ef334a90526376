// Command perfbench is the repository benchmark: it runs one named TPC-C
// replication workload through core.New and Model.Run, checks that the run
// is correct, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"run_s": {"value": 0.91, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// observation installed. With -trace 1 a separate traced run reports the
// per-layer metrics: CPU-profile attribution per internal package, counters
// the program exports, and drivers that time each layer's public API.
//
// Usage (from the repository root; run.py builds the binary first):
//
//	perfbench -workload paper-3site -seed 1 -seconds 20 -trace 0
//
// The exit code is 0 only when every run passed the correctness gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement budget in host seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// One model on one goroutine; GOMAXPROCS never exceeds the CPUs the
	// process may use, so the GC's helpers do not oversubscribe the host.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	host := fingerprint()
	fmt.Printf("host: cpu=%q nproc=%d go=%s gomaxprocs=%d\n", host.CPU, host.NProc, host.Go, host.GOMAXPROCS)
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%d\n", w.Name, *seed, *seconds, *traced)

	budget := time.Duration(*seconds) * time.Second
	var rep report
	var err error
	if *traced == 1 {
		rep, err = runTraced(w, *seed, budget, host)
	} else {
		rep, err = runEndToEnd(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := checkDeclared(*traced == 1, rep.Metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		rep.Correct = false
	}
	printMetrics(rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// hostInfo is the fingerprint recorded with every result: figures from two
// hosts are not comparable.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func fingerprint() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	// Linux only; elsewhere the model stays "unknown".
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// checkDeclared verifies that the run reports exactly the metrics, with the
// units, that BENCHMARK.json at the repository root declares for its mode.
func checkDeclared(traced bool, ms map[string]metric) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("metric declarations: %w", err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("metric declarations: %w", err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	var problems []string
	for _, d := range want {
		if m, ok := ms[d.Name]; !ok {
			problems = append(problems, "missing "+d.Name)
		} else if m.Unit != d.Unit {
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", d.Name, m.Unit, d.Unit))
		}
	}
	declared := map[string]bool{}
	for _, d := range want {
		declared[d.Name] = true
	}
	for n := range ms {
		if !declared[n] {
			problems = append(problems, "undeclared "+n)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics disagree with BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}
