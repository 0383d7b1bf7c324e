package figures

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"abftckpt/internal/scenario"
)

// update rewrites the golden CSV files instead of comparing against them:
//
//	go test ./internal/figures -run TestGolden -update
//
// The committed goldens were generated by the pre-scenario-engine figure
// code; they pin the campaign files and the engine to byte-identical CSV
// output.
var update = flag.Bool("update", false, "rewrite golden files")

// paperNodes are the node counts of the weak-scaling goldens.
var paperNodes = []float64{1_000, 10_000, 100_000, 1_000_000}

// smallFig7Diff is the golden size of a Figure 7 difference heatmap.
var smallFig7Diff = shrinks(fig7Grid, withReps(10, 1))

// smallSilentDiff is the golden size of a silent-error difference heatmap.
var smallSilentDiff = shrinks(silentGrid, withReps(10, 1))

// goldenSets name, per committed campaign file, the scenarios the goldens
// run and the shrink of each. The analytic and the simulation-backed sets
// are apart so -short can skip the latter.
var goldenSets = []struct {
	file string
	sim  bool
	run  map[string]shrink
}{
	{"paper", false, map[string]shrink{
		"fig7a_pure_model": nil, "fig7c_bi_model": nil, "fig7e_abft_model": nil,
		"fig8": withNodes(paperNodes...), "fig9": withNodes(paperNodes...), "fig10": withNodes(paperNodes...),
		"table_fig10_parity": nil, "table_periods": nil,
		"table_ablation_epochs": nil, "table_ablation_safeguard": nil,
	}},
	{"paper", true, map[string]shrink{
		"fig7b_pure_diff": smallFig7Diff, "fig7d_bi_diff": smallFig7Diff, "fig7f_abft_diff": smallFig7Diff,
		"table_weibull": withReps(10, 7), "table_dist_sensitivity": withReps(10, 7),
	}},
	{"silent", false, map[string]shrink{"silent_backward_model": nil, "silent_forward_model": nil}},
	{"multilevel", false, map[string]shrink{"multilevel": withNodes(paperNodes...)}},
	{"silent", true, map[string]shrink{"silent_backward_diff": smallSilentDiff, "silent_forward_diff": smallSilentDiff}},
	{"multilevel", true, map[string]shrink{"multilevel_sim": shrinks(withNodes(10_000, 1_000_000), withReps(10, 1))}},
}

// goldenName is the golden file base name of an artifact: shrunk
// simulation artifacts carry a _small suffix.
func goldenName(artifact string, sim bool) string {
	switch {
	case !sim:
		return artifact
	case artifact == "table_dist_sensitivity":
		return "table_dist_small"
	}
	return artifact + "_small"
}

// checkGoldens runs the golden sets of the given campaign files (the
// simulation-backed ones when sim is set), one campaign run per set, and
// compares every artifact's CSV with its golden file.
func checkGoldens(t *testing.T, sim bool, files ...string) {
	t.Helper()
	for _, set := range goldenSets {
		if set.sim != sim || !slices.Contains(files, set.file) {
			continue
		}
		for name, art := range runScenarios(t, set.file, set.run) {
			var buf bytes.Buffer
			if err := art.WriteCSV(&buf); err != nil {
				t.Fatalf("%s: WriteCSV: %v", name, err)
			}
			path := filepath.Join("testdata", "golden", goldenName(name, sim)+".csv")
			if *update {
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
}

// TestGoldenModelCSV pins the analytic figures and tables of paper.json to
// byte-identical CSV output.
func TestGoldenModelCSV(t *testing.T) {
	checkGoldens(t, false, "paper")
}

// TestGoldenSimCSV pins the simulator-backed artifacts of paper.json
// (reduced grids and repetition counts; still seeded and bit-reproducible).
func TestGoldenSimCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	checkGoldens(t, true, "paper")
}

// TestGoldenSilentMLModelCSV pins the analytic artifacts of silent.json and
// multilevel.json to byte-identical CSV output.
func TestGoldenSilentMLModelCSV(t *testing.T) {
	checkGoldens(t, false, "silent", "multilevel")
}

// TestGoldenSilentMLSimCSV pins the simulator-backed artifacts of
// silent.json and multilevel.json (reduced grids; still seeded and
// bit-reproducible).
func TestGoldenSilentMLSimCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	checkGoldens(t, true, "silent", "multilevel")
}

// TestGoldenFilesCovered checks every golden file is produced by a golden
// set and every golden set artifact has a golden file, so no golden is left
// pinning nothing.
func TestGoldenFilesCovered(t *testing.T) {
	var want []string
	for _, set := range goldenSets {
		plan, err := scenario.PlanCampaign(loadScenarios(t, set.file, set.run))
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range plan.Scenarios {
			for _, art := range sp.Artifacts {
				want = append(want, goldenName(art, set.sim)+".csv")
			}
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	var have []string
	for _, e := range entries {
		have = append(have, e.Name())
	}
	slices.Sort(want)
	if !slices.Equal(want, have) {
		t.Errorf("golden sets produce\n  %s\nbut testdata/golden holds\n  %s",
			strings.Join(want, " "), strings.Join(have, " "))
	}
}
