package figures

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"abftckpt/internal/scenario"
)

// runPaper runs one paper.json scenario, shrunk, and returns its artifacts
// by name.
func runPaper(t *testing.T, name string, f shrink) map[string]scenario.Artifact {
	t.Helper()
	return runScenarios(t, "paper", map[string]shrink{name: f})
}

func TestFig7ModelShape(t *testing.T) {
	h := runPaper(t, "fig7a_pure_model", fig7Grid)["fig7a_pure_model"].Heatmap
	if h.Z.Rows != 3 || h.Z.Cols != 3 {
		t.Fatalf("grid shape %dx%d", h.Z.Rows, h.Z.Cols)
	}
	// Pure periodic: waste decreases with MTBF, constant in alpha.
	for col := 1; col < 3; col++ {
		if !(h.Z.At(0, col) < h.Z.At(0, col-1)) {
			t.Errorf("waste not decreasing in MTBF at col %d", col)
		}
	}
	for row := 1; row < 3; row++ {
		if h.Z.At(row, 0) != h.Z.At(0, 0) {
			t.Errorf("pure waste should not depend on alpha")
		}
	}
}

func TestFig7CompositeAlphaGradient(t *testing.T) {
	h := runPaper(t, "fig7e_abft_model", fig7Grid)["fig7e_abft_model"].Heatmap
	// At fixed MTBF, more library time means less waste for the composite
	// (Figure 7e: waste decreases toward alpha=1).
	for col := 0; col < 3; col++ {
		if !(h.Z.At(2, col) < h.Z.At(0, col)) {
			t.Errorf("composite waste at alpha=1 (%v) should be below alpha=0 (%v)",
				h.Z.At(2, col), h.Z.At(0, col))
		}
	}
}

func TestFig7DiffSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	h := runPaper(t, "fig7f_abft_diff", shrinks(fig7Grid, withReps(30, 1)))["fig7f_abft_diff"].Heatmap
	lo, hi := slices.Min(h.Z.Data), slices.Max(h.Z.Data)
	// Model and simulation must correspond within the paper's bounds.
	if lo < -0.13 || hi > 0.13 {
		t.Errorf("diff out of bounds: [%v, %v]", lo, hi)
	}
	if !strings.Contains(h.Title, "Difference") {
		t.Error("diff title missing")
	}
}

func TestFig8Charts(t *testing.T) {
	nodes := paperNodes
	arts := runPaper(t, "fig8", withNodes(nodes...))
	waste, faults := arts["fig8_waste"].Chart, arts["fig8_faults"].Chart
	if len(waste.Series) != 7 || len(faults.Series) != 7 {
		t.Fatalf("series count: %d waste, %d faults", len(waste.Series), len(faults.Series))
	}
	byName := map[string][]float64{}
	for _, s := range waste.Series {
		byName[s.Name] = s.Values
	}
	pure := byName["PurePeriodicCkpt"]
	comp := byName["ABFT&PeriodicCkpt"]
	if pure == nil || comp == nil {
		t.Fatalf("missing headline series: %v", byName)
	}
	// Published shape: composite is worse below ~100k (paper: "up to
	// approximately 100,000 nodes, the fault-free overhead of ABFT
	// negatively impacts the waste"), better at 1M; crossover in the
	// 10^5..10^6 decade.
	for i := 0; i < 3; i++ {
		if !(comp[i] > pure[i]) {
			t.Errorf("at %v nodes: composite %v should exceed pure %v", nodes[i], comp[i], pure[i])
		}
	}
	if !(comp[3] < pure[3]) {
		t.Errorf("at 1M: composite %v should be below pure %v", comp[3], pure[3])
	}
	// The amortized composite variant is never worse than the per-epoch one.
	amortized := byName["ABFT&PeriodicCkpt (amortized ckpts)"]
	for i := range amortized {
		if amortized[i] > comp[i]+1e-9 {
			t.Errorf("amortized %v worse than per-epoch %v at %v nodes", amortized[i], comp[i], nodes[i])
		}
	}
	// The paper-stated linear variant must exist and become infeasible
	// (waste=1) at 1M nodes.
	lin := byName["PurePeriodicCkpt (C~x)"]
	if lin == nil || lin[3] != 1 {
		t.Errorf("linear-C variant at 1M: %v, want 1 (infeasible)", lin)
	}
}

func TestFig9Charts(t *testing.T) {
	waste := runPaper(t, "fig9", withNodes(paperNodes...))["fig9_waste"].Chart
	byName := map[string][]float64{}
	for _, s := range waste.Series {
		byName[s.Name] = s.Values
	}
	// Headline (paper-stated C~x): periodic checkpointing collapses at
	// scale; the composite is infeasible at 1M too (the remainder reload
	// alone exceeds the MTBF) but survives longer than pure.
	pure := byName["PurePeriodicCkpt"]
	comp := byName["ABFT&PeriodicCkpt"]
	if pure[3] != 1 {
		t.Errorf("pure at 1M with C~x: %v, want 1", pure[3])
	}
	if !(comp[2] < pure[2]) {
		t.Errorf("at 100k: composite %v should beat pure %v", comp[2], pure[2])
	}
}

func TestFig10Charts(t *testing.T) {
	arts := runPaper(t, "fig10", withNodes(10_000, 100_000, 1_000_000))
	waste, faults := arts["fig10_waste"].Chart, arts["fig10_faults"].Chart
	if len(waste.Series) != 3 {
		t.Fatalf("want 3 series, got %d", len(waste.Series))
	}
	byName := map[string][]float64{}
	for _, s := range waste.Series {
		byName[s.Name] = s.Values
	}
	// Constant checkpoint cost rescues the periodic protocols (finite
	// waste at 1M) but the composite still wins there.
	pure := byName["PurePeriodicCkpt"]
	comp := byName["ABFT&PeriodicCkpt"]
	if pure[2] >= 1 {
		t.Errorf("pure at 1M should be feasible, got %v", pure[2])
	}
	if !(comp[2] < pure[2]) {
		t.Errorf("composite %v should beat pure %v at 1M", comp[2], pure[2])
	}
	// Fault counts exist and grow with node count for the periodic series.
	for _, s := range faults.Series {
		if s.Name == "PurePeriodicCkpt" {
			if !(s.Values[2] > s.Values[0]) {
				t.Errorf("fault count should grow: %v", s.Values)
			}
		}
	}
}

func TestFig10ParityTable(t *testing.T) {
	tab := runPaper(t, "table_fig10_parity", nil)["table_fig10_parity"].Table
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	parse := func(s string) float64 {
		var v float64
		if _, err := sscan(s, &v); err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	pure60 := parse(tab.Rows[0][1])
	comp := parse(tab.Rows[2][1])
	pure6 := parse(tab.Rows[3][1])
	if !(comp < pure60) {
		t.Errorf("composite %v should beat pure-60s %v", comp, pure60)
	}
	if math.Abs(pure6-comp) > 0.05 {
		t.Errorf("10x cheaper checkpoints should reach parity: pure6=%v comp=%v", pure6, comp)
	}
}

func TestPeriodTable(t *testing.T) {
	tab := runPaper(t, "table_periods", nil)["table_periods"].Table
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := tab.Render()
	if !strings.Contains(out, "eq11") {
		t.Error("render missing column")
	}
	// No infeasible rows for these comfortable parameters.
	for _, row := range tab.Rows {
		if row[2] == "infeasible" {
			t.Errorf("unexpected infeasible row: %v", row)
		}
	}
}

func TestAblationTables(t *testing.T) {
	nodes := withNodes(10_000, 1_000_000)
	arts := runScenarios(t, "paper", map[string]shrink{"table_ablation_epochs": nodes, "table_ablation_safeguard": nodes})
	agg := arts["table_ablation_epochs"].Table
	if len(agg.Rows) != 2 {
		t.Fatalf("aggregation rows = %d", len(agg.Rows))
	}
	sg := arts["table_ablation_safeguard"].Table
	if len(sg.Rows) != 2 {
		t.Fatalf("safeguard rows = %d", len(sg.Rows))
	}
	// Safeguard can only help (or tie): its waste is <= the no-safeguard one.
	for _, row := range sg.Rows {
		var off, on float64
		sscan(row[1], &off)
		sscan(row[2], &on)
		if on > off+1e-9 {
			t.Errorf("safeguard hurt: %v > %v at nodes=%s", on, off, row[0])
		}
	}
}

func TestWeibullSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	c := loadScenarios(t, "paper", map[string]shrink{"table_weibull": withReps(30, 5)})
	cases := c.Scenarios[0].Cases
	tab := runCampaign(t, c)["table_weibull"].Table
	if len(tab.Rows) != len(cases) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(cases))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			var v float64
			if _, err := sscan(cell, &v); err != nil || v < 0 || v > 1 {
				t.Errorf("implausible waste cell %q", cell)
			}
		}
	}
}

// sscan parses a float table cell.
func sscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

func TestDistributionSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	c := loadScenarios(t, "paper", map[string]shrink{"table_dist_sensitivity": withReps(30, 5)})
	cases := c.Scenarios[0].Cases
	tab := runCampaign(t, c)["table_dist_sensitivity"].Table
	if len(tab.Rows) != len(cases) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(cases))
	}
	if tab.Rows[0][0] != "exponential" {
		t.Fatalf("first row should be the exponential baseline, got %q", tab.Rows[0][0])
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			var v float64
			if _, err := sscan(cell, &v); err != nil || v <= 0 || v >= 1 {
				t.Errorf("%s: implausible waste cell %q", row[0], cell)
			}
		}
	}
}
