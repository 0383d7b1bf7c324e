package figures

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"abftckpt/internal/model"
)

// update rewrites the golden CSV files instead of comparing against them:
//
//	go test ./internal/figures -run TestGolden -update
//
// The committed goldens were generated by the pre-scenario-engine figure
// code; they pin the refactor to byte-identical CSV output.
var update = flag.Bool("update", false, "rewrite golden files")

// csvArtifact is anything cmd/ftcampaign writes as CSV.
type csvArtifact interface {
	WriteCSV(w io.Writer) error
}

// goldenDiffConfig is a reduced Figure 7 grid so the simulation-backed
// goldens stay fast enough for every test run.
func goldenDiffConfig(proto model.Protocol) Fig7Config {
	return Fig7Config{
		Protocol:    proto,
		MTBFMinutes: []float64{60, 120, 240},
		Alphas:      []float64{0, 0.5, 1},
		Reps:        10,
		Seed:        1,
	}
}

// modelArtifacts are the analytic (fast, deterministic) figures and tables.
func modelArtifacts() map[string]csvArtifact {
	arts := map[string]csvArtifact{}
	letters := map[model.Protocol]string{
		model.PurePeriodicCkpt: "fig7a_pure_model",
		model.BiPeriodicCkpt:   "fig7c_bi_model",
		model.AbftPeriodicCkpt: "fig7e_abft_model",
	}
	for _, proto := range model.Protocols {
		arts[letters[proto]] = Fig7Model(Fig7Config{Protocol: proto})
	}
	nodes := []float64{1_000, 10_000, 100_000, 1_000_000}
	w8, f8 := Fig8(nodes)
	arts["fig8_waste"], arts["fig8_faults"] = w8, f8
	w9, f9 := Fig9(nodes)
	arts["fig9_waste"], arts["fig9_faults"] = w9, f9
	w10, f10 := Fig10(nodes)
	arts["fig10_waste"], arts["fig10_faults"] = w10, f10
	arts["table_fig10_parity"] = Fig10ParityTable()
	arts["table_periods"] = PeriodTable()
	arts["table_ablation_epochs"] = AblationEpochAggregation(nodes)
	arts["table_ablation_safeguard"] = AblationSafeguard(nodes)
	return arts
}

// simArtifacts exercise the simulator-backed paths at reduced repetitions.
func simArtifacts() map[string]csvArtifact {
	arts := map[string]csvArtifact{
		"fig7b_pure_diff_small": Fig7Diff(goldenDiffConfig(model.PurePeriodicCkpt)),
		"fig7d_bi_diff_small":   Fig7Diff(goldenDiffConfig(model.BiPeriodicCkpt)),
		"fig7f_abft_diff_small": Fig7Diff(goldenDiffConfig(model.AbftPeriodicCkpt)),
		"table_weibull_small":   WeibullSensitivity([]float64{0.5, 0.7, 1.0}, 10, 7),
		"table_dist_small":      DistributionSensitivity(DefaultDistCases(), 10, 7),
	}
	return arts
}

func checkGolden(t *testing.T, arts map[string]csvArtifact) {
	t.Helper()
	for name, art := range arts {
		var buf bytes.Buffer
		if err := art.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: WriteCSV: %v", name, err)
		}
		path := filepath.Join("testdata", "golden", name+".csv")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update): %v", name, err)
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("%s: CSV output diverged from golden file %s", name, path)
		}
	}
}

// TestGoldenModelCSV pins the analytic figures and tables to byte-identical
// CSV output across refactors of the figure pipeline.
func TestGoldenModelCSV(t *testing.T) {
	checkGolden(t, modelArtifacts())
}

// TestGoldenSimCSV pins the simulator-backed artifacts (reduced grids and
// repetition counts; still seeded and bit-reproducible).
func TestGoldenSimCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	checkGolden(t, simArtifacts())
}
