package core

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/replica"
)

// The feature:"key" tags make the Features key set implicit, and every key
// added or lost changes the explorer's coverage map and with it its search.
// Pin the set here so a change to it is a deliberate edit.
func TestFeaturesKeySet(t *testing.T) {
	want := []string{
		"assignacks", "assigndeferred", "backlogpeak", "creditstalls",
		"deltaapplied", "flowrejected", "flushabandons", "giveups",
		"joinrequests", "joins", "mispredicted", "nacks", "queuepeakkb",
		"quorumlosses", "recertified", "recoveries", "rejected",
		"retransmits", "retries", "rollbacks", "uniformstalls",
		"viewchanges", "xhandovers", "xprepfrags", "xretries", "xvetoes",
	}
	var got []string
	for k := range (&Results{}).Features() {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Features keys = %v\nwant %v", got, want)
	}
}

func TestFeaturesValues(t *testing.T) {
	r := &Results{Recoveries: 2, Retries: 5}
	r.GCS.Retransmits = 7
	r.GCS.QueuePeakBytes = 5000
	r.Rollbacks = 3
	f := r.Features()
	for key, want := range map[string]int64{
		"recoveries": 2, "retries": 5, "retransmits": 7, "queuepeakkb": 4, "rollbacks": 3, "nacks": 0,
	} {
		if f[key] != want {
			t.Errorf("Features()[%q] = %d, want %d", key, f[key], want)
		}
	}
}

// syntheticRuns builds n Results whose fields all hold distinct values, so
// a Stat read from the wrong field cannot match by accident.
func syntheticRuns(n int) []*Results {
	runs := make([]*Results, n)
	for i := range runs {
		r := &Results{
			LatCommitted:  &metrics.Sample{},
			LatReadOnly:   &metrics.Sample{},
			LatUpdate:     &metrics.Sample{},
			CertLat:       &metrics.Sample{},
			CertDecideLat: &metrics.Sample{},
		}
		k := 0
		v := reflect.ValueOf(r).Elem()
		var fill func(v reflect.Value)
		fill = func(v reflect.Value) {
			for j := range v.NumField() {
				f := v.Field(j)
				if !v.Type().Field(j).IsExported() {
					continue
				}
				k++
				x := k*100 + i*i*7 + i
				switch {
				case f.Kind() == reflect.Struct:
					fill(f)
				case f.CanInt():
					f.SetInt(int64(x) * 1_000_003)
				case f.CanFloat():
					f.SetFloat(float64(x) / 3)
				}
			}
		}
		fill(v)
		runs[i] = r
	}
	return runs
}

// Each long-tail column Aggregate used to carry as a field is now read by
// name; it must equal statOf over the same field of every run.
func TestAggregateStatMatchesFields(t *testing.T) {
	runs := syntheticRuns(4)
	a := AggregateRuns(runs)
	columns := map[string]func(r *Results) float64{
		"GCS.Retransmits":    func(r *Results) float64 { return float64(r.GCS.Retransmits) },
		"GCS.Nacks":          func(r *Results) float64 { return float64(r.GCS.Nacks) },
		"GCS.Blocked":        func(r *Results) float64 { return float64(r.GCS.Blocked) },
		"GCS.BlockedTime":    func(r *Results) float64 { return float64(r.GCS.BlockedTime) },
		"Rejected":           func(r *Results) float64 { return float64(r.Rejected) },
		"Retries":            func(r *Results) float64 { return float64(r.Retries) },
		"GCS.CreditStalls":   func(r *Results) float64 { return float64(r.GCS.CreditStalls) },
		"GCS.FlowRejected":   func(r *Results) float64 { return float64(r.GCS.FlowRejected) },
		"BacklogPeak":        func(r *Results) float64 { return float64(r.BacklogPeak) },
		"GCS.QueuePeakBytes": func(r *Results) float64 { return float64(r.GCS.QueuePeakBytes) },
		"MeanCertDecideMS":   func(r *Results) float64 { return r.MeanCertDecideMS },
		"Rollbacks":          func(r *Results) float64 { return float64(r.Rollbacks) },
		"Recertified":        func(r *Results) float64 { return float64(r.Recertified) },
		"OptMispredictPct":   func(r *Results) float64 { return r.OptMispredictPct },
		"Recoveries":         func(r *Results) float64 { return float64(r.Recoveries) },
		"MeanRecoveryMS":     func(r *Results) float64 { return r.MeanRecoveryMS },
		"MeanDowntimeMS":     func(r *Results) float64 { return r.MeanDowntimeMS },
		"TransferBytes":      func(r *Results) float64 { return float64(r.TransferBytes) },
		"DeltaApplied":       func(r *Results) float64 { return float64(r.DeltaApplied) },
		"MultiGroupPct":      func(r *Results) float64 { return r.MultiGroupPct },
		"XRetries":           func(r *Results) float64 { return float64(r.XRetries) },
		"XHandovers":         func(r *Results) float64 { return float64(r.XHandovers) },
	}
	if len(columns) != 22 {
		t.Fatalf("%d columns, want the 22 Aggregate fields Stat replaced", len(columns))
	}
	col := func(get func(*Results) float64) Stat {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = get(r)
		}
		return statOf(vals)
	}
	for name, get := range columns {
		want := col(get)
		if want.Mean == 0 || want.CI95 == 0 {
			t.Fatalf("%s: synthetic runs left the field constant: %+v", name, want)
		}
		if got := a.Stat(name); got != want {
			t.Errorf("Stat(%q) = %+v, want %+v", name, got, want)
		}
	}
	// Byte counts scale to KB exactly: a power-of-two factor commutes with
	// every rounding step, so the scaled Stat equals the old KB column.
	for _, name := range []string{"TransferBytes", "GCS.QueuePeakBytes"} {
		get := columns[name]
		want := col(func(r *Results) float64 { return get(r) / 1024 })
		if got := a.Stat(name).Scale(1.0 / 1024); got != want {
			t.Errorf("Stat(%q).Scale(1/1024) = %+v, want %+v", name, got, want)
		}
	}
	ms := a.Stat("GCS.BlockedTime").Scale(1e-6)
	want := col(func(r *Results) float64 { return r.GCS.BlockedTime.Seconds() * 1e3 })
	if math.Abs(ms.Mean-want.Mean) > 1e-9*want.Mean || math.Abs(ms.CI95-want.CI95) > 1e-9*want.CI95 {
		t.Errorf("blocked ms = %+v, want %+v", ms, want)
	}
	// The headline fields are filled from the same pass.
	if a.TPM != col(func(r *Results) float64 { return r.TPM }) ||
		a.CPURealUtil != col(func(r *Results) float64 { return r.CPURealUtilPct }) ||
		a.Committed != col(func(r *Results) float64 { return float64(r.Committed) }) {
		t.Errorf("headline fields disagree with their columns: %+v %+v %+v", a.TPM, a.CPURealUtil, a.Committed)
	}
	// Stat survives a caller dropping Runs.
	a.Runs = nil
	if a.Stat("Rollbacks").N != len(runs) {
		t.Fatal("Stat must not depend on Runs")
	}
}

// A counter declared in gcs.Stats or replica.Stats reaches Aggregate.Stat
// with no other edit: Stat panics (failing the test) on any it misses.
func TestEveryStackCounterReachesStat(t *testing.T) {
	a := AggregateRuns(syntheticRuns(2))
	metrics.Fields(replica.Stats{}, func(name string, _ reflect.StructTag, _ float64) { a.Stat(name) })
	metrics.Fields(gcs.Stats{}, func(name string, _ reflect.StructTag, _ float64) { a.Stat("GCS." + name) })
}

func TestAggregateStatPanicsOnUnknownName(t *testing.T) {
	a := AggregateRuns(syntheticRuns(1))
	defer func() {
		r := recover()
		if s, ok := r.(string); !ok || !strings.Contains(s, "GCS.Retransmit") {
			t.Fatalf("recover() = %v, want a panic naming the misspelt stat", r)
		}
	}()
	a.Stat("GCS.Retransmit")
}
