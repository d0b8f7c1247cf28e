package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own repetition child, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if env := os.Getenv(childEnv); env != "" {
		os.Exit(childMain(env))
	}
	os.Exit(m.Run())
}

// TestSmallWorkloads runs every workload at reduced size, untraced and
// traced, and checks that it passes its output checks and reports every
// named metric.
func TestSmallWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runBench(w.name, 7, 200*time.Millisecond, trace, true)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayerCatalogue()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, present=%v", w.name, trace, m.name, got, ok)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, m.name, res.Metrics[m.name].Value)
					}
				}
				continue
			}
			var sum float64
			for _, b := range shareBuckets() {
				sum += res.Metrics[shareMetric(b)].Value
			}
			// A reduced-size run can finish between two profile ticks.
			if sum != 0 && math.Abs(sum-1) > 0.01 {
				t.Errorf("%s: profile CPU shares sum to %v, want 1 ± 0.01", w.name, sum)
			}
		}
	}
}

// TestCPUShares profiles one full-size traced fabric-dense repetition
// in-process and checks that the attribution covers the whole profile and
// finds the fair-share solver that dominates it.
func TestCPUShares(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workload")
	}
	r := &rep{childArgs: childArgs{Workload: "fabric-dense", Seed: 3, Traced: true}, tr: newTracer()}
	r.out.Layers = map[string]float64{}
	if err := fabricDense.run(r); err != nil {
		t.Fatal(err)
	}
	shares := cpuShares(r.out.Samples)
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1 ± 0.01 (samples %v)", sum, r.out.Samples)
	}
	for b, s := range shares {
		if s > shares["fairshare"] {
			t.Errorf("bucket %s has share %v, above fairshare's %v", b, s, shares["fairshare"])
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "horse/internal/fairshare.(*Allocator).Recompute", "horse/internal/flowsim.(*Simulator).Run"}, "fairshare"},
		{[]string{"horse/internal/eventq.(*Wheel[go.shape.int]).Push"}, "eventq"},
		{[]string{"encoding/json.Marshal", "horse/api/wire.(*Client).write"}, "wire"},
		{[]string{"main.(*digest).add", "horse/internal/flowsim.(*Simulator).finalize"}, "perfbench"},
		{[]string{"horse.New"}, "horse"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.futex", "runtime.findRunnable"}, bucketOther},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	shares := cpuShares(map[string]int64{"fairshare": 3, "netgraph": 1})
	if shares["fairshare"] != 0.75 || shares[bucketOther] != 0.25 {
		t.Errorf("cpuShares folds unreported modules into other: %v", shares)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		whys = append(whys, w.Why)
	}
	var wantWhys []string
	for _, w := range workloads {
		wantWhys = append(wantWhys, w.why)
	}
	if !reflect.DeepEqual(names, workloadNames()) || !reflect.DeepEqual(whys, wantWhys) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	check := func(kind string, got []metricJSON, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, benchmark reports %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayerCatalogue())
}
