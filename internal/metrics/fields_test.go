package metrics

import (
	"reflect"
	"strings"
	"testing"
)

type inner struct {
	Hits int64
	Peak int64 `fold:"max"`
}

type Embedded struct {
	Promoted int64 `feature:"promoted"`
}

type outer struct {
	Embedded
	Count int64
	Wait  int // a different integer kind
	Inner inner
	Ratio float64
	Name  string
	Vals  []int64
	ptr   *int64
	quiet int64
}

func TestFoldSumsAndKeepsMax(t *testing.T) {
	dst := inner{Hits: 3, Peak: 10}
	Fold(&dst, inner{Hits: 4, Peak: 7})
	if dst != (inner{Hits: 7, Peak: 10}) {
		t.Fatalf("after first fold: %+v", dst)
	}
	Fold(&dst, &inner{Hits: 1, Peak: 12}) // pointer src
	if dst != (inner{Hits: 8, Peak: 12}) {
		t.Fatalf("after pointer fold: %+v", dst)
	}
}

type nested struct {
	Embedded
	N     int32
	Inner inner
	quiet int64
}

func TestFoldRecursesIntoNestedStructs(t *testing.T) {
	dst := nested{Embedded: Embedded{Promoted: 1}, N: 2, Inner: inner{Hits: 3, Peak: 4}, quiet: 5}
	Fold(&dst, nested{Embedded: Embedded{Promoted: 10}, N: 20, Inner: inner{Hits: 30, Peak: 1}, quiet: 50})
	want := nested{Embedded: Embedded{Promoted: 11}, N: 22, Inner: inner{Hits: 33, Peak: 4}, quiet: 5}
	if dst != want {
		t.Fatalf("Fold = %+v, want %+v", dst, want)
	}
}

func TestFoldRejectsNonCounterFields(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "Ratio") {
			t.Fatalf("recover() = %v, want a panic naming the float field", r)
		}
	}()
	var dst struct{ Ratio float64 }
	Fold(&dst, dst)
}

func TestFieldsNamesOrderAndSkips(t *testing.T) {
	n := int64(9)
	v := outer{
		Embedded: Embedded{Promoted: 1},
		Count:    2,
		Wait:     3,
		Inner:    inner{Hits: 4, Peak: 5},
		Ratio:    0.5,
		Name:     "skipped",
		Vals:     []int64{7},
		ptr:      &n,
		quiet:    8,
	}
	var names []string
	var vals []float64
	tags := map[string]reflect.StructTag{}
	Fields(&v, func(name string, tag reflect.StructTag, x float64) {
		names = append(names, name)
		vals = append(vals, x)
		tags[name] = tag
	})
	wantNames := []string{"Promoted", "Count", "Wait", "Inner.Hits", "Inner.Peak", "Ratio"}
	wantVals := []float64{1, 2, 3, 4, 5, 0.5}
	if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(vals, wantVals) {
		t.Fatalf("Fields = %v %v, want %v %v", names, vals, wantNames, wantVals)
	}
	if tags["Promoted"].Get("feature") != "promoted" || tags["Inner.Peak"].Get("fold") != "max" {
		t.Fatalf("tags not passed through: %v", tags)
	}
	// A struct value walks the same as a pointer to it.
	var again []string
	Fields(v, func(name string, _ reflect.StructTag, _ float64) { again = append(again, name) })
	if !reflect.DeepEqual(again, wantNames) {
		t.Fatalf("Fields(value) = %v", again)
	}
}
