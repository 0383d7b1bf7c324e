package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"abftckpt/internal/model"
)

// minimal returns a valid one-scenario campaign JSON for mutation tests.
func minimal() string {
	return `{
		"name": "t",
		"scenarios": [
			{"name": "h", "kind": "heatmap", "protocol": "abft",
			 "mtbf_minutes": {"values": [60, 120]}, "alphas": {"values": [0, 1]}}
		]
	}`
}

func TestLoadValid(t *testing.T) {
	c, err := Load(strings.NewReader(minimal()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "t" || len(c.Scenarios) != 1 {
		t.Fatalf("unexpected campaign: %+v", c)
	}
	if got := CellCount(c, c.Scenarios[0]); got != 4 {
		t.Fatalf("cell count = %d, want 4", got)
	}
	// An empty list counts as unset, so a kind-foreign "series": [] passes.
	emptyForeign := `{"name":"t","scenarios":[{"name":"h","kind":"heatmap","protocol":"abft","series":[]}]}`
	if _, err := Load(strings.NewReader(emptyForeign)); err != nil {
		t.Fatalf("empty kind-foreign list rejected: %v", err)
	}
}

func TestLoadErrors(t *testing.T) {
	axis300 := "[" + strings.TrimSuffix(strings.Repeat("60,", 300), ",") + "]"
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"unknown field", `{"name":"t","scenarios":[],"bogus":1}`, "bogus"},
		{"no scenarios", `{"name":"t","scenarios":[]}`, "no scenarios"},
		{"negative campaign reps", `{"name":"t","reps":-1,"scenarios":[{"name":"a","kind":"periods"}]}`, "reps"},
		{"missing scenario name", `{"name":"t","scenarios":[{"kind":"periods"}]}`, "no name"},
		{"duplicate names", `{"name":"t","scenarios":[{"name":"a","kind":"periods"},{"name":"a","kind":"periods"}]}`, "duplicate"},
		{"missing kind", `{"name":"t","scenarios":[{"name":"a"}]}`, "kind is required"},
		{"unknown kind", `{"name":"t","scenarios":[{"name":"a","kind":"pie"}]}`, "unknown kind"},
		{"heatmap without protocol", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap"}]}`, "protocol"},
		{"unknown protocol", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"best"}]}`, "unknown protocol"},
		{"unknown platform", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","platform":"nope"}]}`, "unknown platform"},
		{"unknown output", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","output":"png"}]}`, "unknown output"},
		{"bad axis range", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","alphas":{"from":0}}]}`, "range axis"},
		{"conflicting axis", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","alphas":{"values":[1],"preset":"paper-nodes"}}]}`, "exactly one"},
		{"unknown preset", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","alphas":{"preset":"galaxy"}}]}`, "unknown axis preset"},
		{"non-finite axis", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","alphas":{"values":[1e999]}}]}`, "parse"},
		{"scaling without series", `{"name":"t","scenarios":[{"name":"a","kind":"scaling"}]}`, "at least one series"},
		{"unknown scaling platform", `{"name":"t","scenarios":[{"name":"a","kind":"scaling","series":[{"platform":"nope","protocol":"pure"}]}]}`, "unknown scaling platform"},
		{"bad scaling law", `{"name":"t","scenarios":[{"name":"a","kind":"scaling","series":[{"platform":"paper-fig10","protocol":"pure","overrides":{"ckpt_scaling":"cubic"}}]}]}`, "unknown scaling law"},
		{"points without rows", `{"name":"t","scenarios":[{"name":"a","kind":"points"}]}`, "at least one row"},
		{"points without nodes", `{"name":"t","scenarios":[{"name":"a","kind":"points","rows":[{"label":"x","platform":"paper-fig10","protocol":"pure"}]}]}`, "nodes > 0"},
		{"bad ablation variant", `{"name":"t","scenarios":[{"name":"a","kind":"ablation","variant":"color"}]}`, "ablation variant"},
		{"sensitivity without cases", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity"}]}`, "at least one case"},
		{"unknown distribution", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","cases":[{"name":"x","dist":"cauchy"}]}]}`, "unknown distribution"},
		{"missing shape", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","cases":[{"name":"x","dist":"weibull"}]}]}`, "shape > 0"},
		{"negative spec reps", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","reps":-2,"cases":[{"name":"x","dist":"exp"}]}]}`, "reps"},
		{"negative fixed period", `{"name":"t","scenarios":[{"name":"a","kind":"periods","options":{"fixed_period_g":-1}}]}`, "non-negative"},
		{"heatmap with series", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","series":[{"platform":"paper-fig10","protocol":"pure"}]}]}`, `field "series" does not apply`},
		{"sensitivity with heatmap axis", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","mtbf_minutes":{"values":[60]},"cases":[{"name":"x","dist":"exp"}]}]}`, `field "mtbf_minutes" does not apply`},
		{"periods with protocol", `{"name":"t","scenarios":[{"name":"a","kind":"periods","protocol":"pure"}]}`, `field "protocol" does not apply`},
		{"analytic kind with reps", `{"name":"t","scenarios":[{"name":"a","kind":"scaling","reps":500,"series":[{"platform":"paper-fig10","protocol":"pure"}]}]}`, `field "reps" does not apply`},
		{"analytic kind with seed", `{"name":"t","scenarios":[{"name":"a","kind":"periods","seed":1}]}`, `field "seed" does not apply`},
		{"model heatmap with distribution", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","distribution":{"name":"weibull","shape":0.7}}]}`, `only applies to output sim or diff`},
		{"empty axis values", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","output":"sim","alphas":{"values":[]}}]}`, "non-empty"},
		{"periods over the cell limit", `{"name":"t","scenarios":[{"name":"a","kind":"periods","ckpt_costs":` + axis300 + `,"mtbfs":` + axis300 + `}]}`, "90000 cells, exceeding the 20000-cell limit"},
		{"artifact name collision", `{"name":"t","scenarios":[{"name":"x","kind":"scaling","series":[{"platform":"paper-fig10","protocol":"pure"}]},{"name":"x_waste","kind":"periods"}]}`, `both produce artifact "x_waste"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestCellLimitEveryKind expands one spec per kind whose grid exceeds
// maxScenarioCells: every kind must refuse it before building cells.
func TestCellLimitEveryKind(t *testing.T) {
	values := func(n int) *Axis {
		a := &Axis{Values: make([]float64, n)}
		for i := range a.Values {
			a.Values[i] = float64(i + 1)
		}
		return a
	}
	over := map[string]*Spec{
		KindHeatmap:       {Protocol: ProtoAbft, MTBFMinutes: values(200), Alphas: values(101)},
		KindScaling:       {Nodes: values(10_001), Series: make([]SeriesSpec, 2)},
		KindPoints:        {Rows: make([]PointSpec, maxScenarioCells+1)},
		KindPeriods:       {CkptCosts: values(150).Values, MTBFs: values(150).Values},
		KindAblation:      {Variant: VariantEpochs, Nodes: values(10_001)},
		KindSensitivity:   {Cases: make([]CaseSpec, maxScenarioCells/3+1)},
		KindSilentHeatmap: {MTBEMinutes: values(200), VerifyCosts: values(101)},
		KindMultiLevelScaling: {Output: OutputSim, Nodes: values(5_001),
			MLSeries: make([]MLSeriesSpec, 2)},
	}
	c := &Campaign{Name: "t"}
	for _, k := range kinds {
		s, ok := over[k.name]
		if !ok {
			t.Errorf("kind %q has no oversized case", k.name)
			continue
		}
		s.Name, s.Kind = "x", k.name
		if _, err := s.expand(c); err == nil || !strings.Contains(err.Error(), "-cell limit") {
			t.Errorf("%s: want a cell-limit error, got %v", k.name, err)
		}
	}
}

func TestAxisResolve(t *testing.T) {
	def := []float64{1, 2}
	if got, _ := (*Axis)(nil).Resolve(def); len(got) != 2 {
		t.Fatalf("nil axis should yield the default, got %v", got)
	}
	from, to := 0.0, 1.0
	got, err := (&Axis{From: &from, To: &to, Count: 3}).Resolve(nil)
	if err != nil || len(got) != 3 || got[1] != 0.5 {
		t.Fatalf("linspace axis = %v (%v)", got, err)
	}
	nodes, err := (&Axis{Preset: "paper-nodes"}).Resolve(nil)
	if err != nil || len(nodes) == 0 || nodes[len(nodes)-1] != 1_000_000 {
		t.Fatalf("paper-nodes preset = %v (%v)", nodes, err)
	}
}

func TestLinspace(t *testing.T) {
	got := linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := linspace(3, 7, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("linspace n=1: %v", got)
	}
	if got := linspace(60, 240, 19); got[18] != 240 {
		t.Errorf("endpoint drift: %v", got[18])
	}
}

func TestPlatformCatalogue(t *testing.T) {
	if len(PlatformNames()) == 0 || len(ScalingPlatformNames()) == 0 {
		t.Fatal("catalogue must not be empty")
	}
	p, err := LookupPlatform("paper-fig7")
	if err != nil {
		t.Fatal(err)
	}
	// The catalogue platform must match the paper's Figure 7 parameters.
	want := model.Fig7Params(2*model.Hour, 0.5)
	got := p.Params
	got.Mu, got.Alpha = want.Mu, want.Alpha
	if got != want {
		t.Fatalf("paper-fig7 = %+v, want %+v", got, want)
	}
	for _, name := range ScalingPlatformNames() {
		sp, err := LookupScalingPlatform(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Scaling.ParamsAt(sp.Scaling.BaseNodes).Validate(); err != nil {
			t.Errorf("platform %s yields invalid params: %v", name, err)
		}
	}
}

func TestJSONFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, math.Inf(1), math.Inf(-1), math.NaN()} {
		b, err := json.Marshal(JSONFloat(v))
		if err != nil {
			t.Fatal(err)
		}
		var back JSONFloat
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(v) != math.IsNaN(float64(back)) || (!math.IsNaN(v) && v != float64(back)) {
			t.Errorf("%v -> %s -> %v", v, b, float64(back))
		}
	}
	var f JSONFloat
	if err := json.Unmarshal([]byte(`"huge"`), &f); err == nil {
		t.Error("invalid float string should not parse")
	}
}

// TestFamilySelection: every distribution name a cell accepts builds its
// family with Mean() exactly equal to the MTBF (an absent spec is
// exponential), and bad shapes and unknown names are rejected.
func TestFamilySelection(t *testing.T) {
	for _, c := range []struct {
		spec *DistSpec
		want string
	}{
		{nil, "Exponential"},
		{&DistSpec{Name: DistExponential}, "Exponential"},
		{&DistSpec{Name: DistWeibull, Shape: 0.7}, "Weibull"},
		{&DistSpec{Name: DistLogNormal, Shape: 1.2}, "LogNormal"},
		{&DistSpec{Name: DistGamma, Shape: 2}, "Gamma"},
		{&DistSpec{Name: DistCascade, Shape: 0.15}, "Cascade"},
	} {
		mk, err := c.spec.constructor()
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		d := mk(100)
		if !strings.Contains(d.String(), c.want) {
			t.Errorf("%+v built %v, want %s", c.spec, d, c.want)
		}
		if d.Mean() != 100 {
			t.Errorf("%+v: Mean() = %v, want exactly 100", c.spec, d.Mean())
		}
	}
	for _, bad := range []DistSpec{
		{Name: "uniform", Shape: 1}, {Name: "exponential"}, {Name: ""},
		{Name: DistWeibull, Shape: 0}, {Name: DistLogNormal, Shape: -1}, {Name: DistGamma, Shape: 0},
		{Name: DistCascade, Shape: 0}, {Name: DistCascade, Shape: 1}, {Name: DistCascade, Shape: -0.5},
	} {
		if _, err := bad.constructor(); err == nil {
			t.Errorf("%+v: expected error", bad)
		}
	}
}

func TestCellHashStability(t *testing.T) {
	p := model.Fig7Params(2*model.Hour, 0.8)
	a := CellSpec{Op: OpModel, Protocol: ProtoAbft, Params: &p}
	b := CellSpec{Op: OpModel, Protocol: ProtoAbft, Params: &p}
	if a.Hash() != b.Hash() {
		t.Error("equal specs must hash equally")
	}
	q := p
	q.Alpha = 0.9
	c := CellSpec{Op: OpModel, Protocol: ProtoAbft, Params: &q}
	if a.Hash() == c.Hash() {
		t.Error("different specs must hash differently")
	}
}

func TestScalingLawJSON(t *testing.T) {
	w := model.Fig8Scenario(model.ScaleLinear)
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"linear"`) || !strings.Contains(string(b), `"sqrt"`) {
		t.Fatalf("scaling laws should serialize by name: %s", b)
	}
	var back model.WeakScaling
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != w {
		t.Fatalf("round trip mismatch: %+v != %+v", back, w)
	}
	if err := json.Unmarshal([]byte(`{"CkptScaling":"cubic"}`), &back); err == nil {
		t.Error("unknown law name should fail to parse")
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestHeatmapExpandAllocs pins the allocations of expanding one simulated
// heatmap of the cold-cohort bench campaign, which the campaign/cold_cohort
// bench gates exactly: a layout helper that heap-allocates per spec (a
// slice of grid closures, say) shows up there as a regression.
func TestHeatmapExpandAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := BenchCohortCampaign()
	s := c.Scenarios[0]
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.expand(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 27 {
		t.Errorf("expand of %s: %v allocs, want <= 27", s.Name, allocs)
	}
}
