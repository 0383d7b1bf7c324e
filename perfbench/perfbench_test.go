package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"abftckpt/internal/scenario"
)

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	gen := func(seed uint64) []request {
		hot := cellSet(seed, "hot", hotCells)
		warm := cellSet(seed, "warm", warmCells)
		reqs, err := makeSchedule(seed, "reference", refRate, 2*time.Second, hot, warm)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	a, b := gen(7), gen(7)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d vs %d requests)", len(a), len(b))
	}
	c := gen(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	seen := map[string]int{}
	for i, q := range a {
		seen[q.class]++
		if i > 0 && q.due < a[i-1].due {
			t.Fatalf("request %d due before its predecessor", i)
		}
	}
	for _, cl := range classes {
		if seen[cl] == 0 {
			t.Errorf("class %s never scheduled", cl)
		}
	}
}

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// printedMetrics runs report over the given metric names and returns the
// names and units of the result line's metrics.
func printedMetrics(t *testing.T, workload string, defs []metricDef) map[string]string {
	t.Helper()
	r := &run{workload: workload, attempted: 1, metrics: map[string]float64{}, stderr: os.Stderr}
	for _, d := range defs {
		r.metrics[d.name] = 1
	}
	var out bytes.Buffer
	if code := r.report(&out, defs); code != 0 {
		t.Fatalf("report exited %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Unit string `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	got := map[string]string{}
	for name, v := range res.Metrics {
		got[name] = v.Unit
	}
	return got
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, gatedWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark gates %v", wls, gatedWorkloads)
	}

	// End to end: every gated workload prints its metrics, and together
	// they are exactly the declared list with the declared units.
	declared := map[string]string{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = m.Unit
	}
	union := map[string]string{}
	for _, w := range gatedWorkloads {
		for name, unit := range printedMetrics(t, w, endToEndFor(w)) {
			if declared[name] != unit {
				t.Errorf("%s prints %s in %q, BENCHMARK.json declares %q", w, name, unit, declared[name])
			}
			union[name] = unit
		}
	}
	if !reflect.DeepEqual(union, declared) {
		t.Errorf("printed end-to-end metrics %v, declared %v", keys(union), keys(declared))
	}
	for _, m := range bf.EndToEnd {
		for _, d := range endToEnd {
			if d.name == m.Name && (d.better != m.Better || d.bound != m.Bound) {
				t.Errorf("%s: BENCHMARK.json says %s/%v, benchmark %s/%v", m.Name, m.Better, m.Bound, d.better, d.bound)
			}
		}
	}

	// Per layer: a traced run prints every declared metric, computed from
	// a trace file, on every workload.
	declared = map[string]string{}
	for _, m := range bf.PerLayer {
		declared[m.Name] = m.Unit
	}
	computed := layerMetrics(&traceFile{Reps: []map[string]float64{{}}})
	if len(computed) != len(perLayer) {
		t.Errorf("layerMetrics computes %d metrics, %d declared in the benchmark", len(computed), len(perLayer))
	}
	for name := range computed {
		if _, ok := declared[name]; !ok {
			t.Errorf("layerMetrics computes undeclared %s", name)
		}
	}
	printed := printedMetrics(t, wlFleet, perLayer)
	if !reflect.DeepEqual(printed, declared) {
		t.Errorf("printed per-layer metrics %v, declared %v", keys(printed), keys(declared))
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestVerifierCatchesFlippedByte(t *testing.T) {
	c := scenario.BenchCampaign()
	runner := scenario.Runner{Workers: 1}
	rep, err := runner.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	if err := artifactCSVs(c.Name, rep.Artifacts, want); err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	for name, v := range want {
		got[name] = append([]byte(nil), v...)
	}
	if d := diffArtifacts(want, got); d != "" {
		t.Fatalf("identical artifacts reported as different: %s", d)
	}
	name := keys(got)[0]
	got[name][len(got[name])/2] ^= 0x01
	if d := diffArtifacts(want, got); d == "" {
		t.Fatal("one flipped byte went unnoticed")
	}
	delete(got, name)
	if d := diffArtifacts(want, got); d == "" {
		t.Fatal("a missing artifact went unnoticed")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	// The textbook nearest-rank example: rank = ceil(p/100 * n).
	xs := []float64{35, 20, 15, 50, 40}
	for _, tc := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{35, 20, 15, 50, 40}) {
		t.Error("percentile reordered its input")
	}
	if got := tailSamples(1000, 99); got != 10 {
		t.Errorf("tailSamples(1000, 99) = %d, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
