// Package figures tests the paper's evaluation as the committed campaign
// files define it: examples/campaigns/paper.json (Section V: the Figure 7
// heatmaps, the Figures 8-10 weak-scaling charts and the tables), and the
// silent-error and multi-level companions silent.json and multilevel.json.
// The tests load those files, shrink the simulation-backed scenarios and
// the node axes to test size, run them through the scenario engine, and
// check the published shapes and the golden CSVs. The package has no
// non-test code: the JSON files are the only definition of the evaluation.
package figures

import (
	"path/filepath"
	"testing"

	"abftckpt/internal/scenario"
)

// campaignPath is the committed campaign file of the given base name.
func campaignPath(name string) string {
	return filepath.Join("..", "..", "examples", "campaigns", name+".json")
}

// shrink edits one loaded scenario in place before it runs; nil runs the
// scenario as committed.
type shrink func(*scenario.Spec)

// shrinks applies several shrinks in order.
func shrinks(fs ...shrink) shrink {
	return func(s *scenario.Spec) {
		for _, f := range fs {
			f(s)
		}
	}
}

// withNodes replaces the node axis.
func withNodes(nodes ...float64) shrink {
	return func(s *scenario.Spec) { s.Nodes = &scenario.Axis{Values: nodes} }
}

// withReps sets the repetition count and seed of a simulation-backed
// scenario.
func withReps(reps int, seed uint64) shrink {
	return func(s *scenario.Spec) { s.Reps, s.Seed = reps, &seed }
}

// fig7Grid reduces a Figure 7 heatmap to MTBF 60/120/240 min x alpha
// 0/0.5/1.
func fig7Grid(s *scenario.Spec) {
	s.MTBFMinutes = &scenario.Axis{Values: []float64{60, 120, 240}}
	s.Alphas = &scenario.Axis{Values: []float64{0, 0.5, 1}}
}

// silentGrid reduces a silent-error heatmap to MTBE 60/120/240 min x
// verification cost 30/120/600 s.
func silentGrid(s *scenario.Spec) {
	s.MTBEMinutes = &scenario.Axis{Values: []float64{60, 120, 240}}
	s.VerifyCosts = &scenario.Axis{Values: []float64{30, 120, 600}}
}

// loadScenarios loads a committed campaign file and keeps the scenarios
// named in run (in file order), each shrunk by its entry.
func loadScenarios(t *testing.T, file string, run map[string]shrink) *scenario.Campaign {
	t.Helper()
	c, err := scenario.LoadFile(campaignPath(file))
	if err != nil {
		t.Fatal(err)
	}
	var kept []*scenario.Spec
	for _, s := range c.Scenarios {
		f, ok := run[s.Name]
		if !ok {
			continue
		}
		if f != nil {
			f(s)
		}
		kept = append(kept, s)
	}
	if len(kept) != len(run) {
		t.Fatalf("%s.json has %d of the %d scenarios the test runs", file, len(kept), len(run))
	}
	c.Scenarios = kept
	return c
}

// runScenarios runs the scenarios of a committed campaign file named in
// run, shrunk, in one campaign run and returns the artifacts by name.
func runScenarios(t *testing.T, file string, run map[string]shrink) map[string]scenario.Artifact {
	t.Helper()
	return runCampaign(t, loadScenarios(t, file, run))
}

// runCampaign runs a loaded campaign and returns the artifacts by name.
func runCampaign(t *testing.T, c *scenario.Campaign) map[string]scenario.Artifact {
	t.Helper()
	rep, err := (&scenario.Runner{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	arts := make(map[string]scenario.Artifact, len(rep.Artifacts))
	for _, a := range rep.Artifacts {
		arts[a.Name] = a
	}
	return arts
}

// TestPaperCampaignValidates checks paper.json loads through the strict
// parser and names every artifact of the paper evaluation.
func TestPaperCampaignValidates(t *testing.T) {
	c, err := scenario.LoadFile(campaignPath("paper"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range c.Scenarios {
		names[s.Name] = true
	}
	for _, want := range []string{
		"fig7a_pure_model", "fig7b_pure_diff", "fig7c_bi_model", "fig7d_bi_diff",
		"fig7e_abft_model", "fig7f_abft_diff", "fig8", "fig9", "fig10",
		"table_fig10_parity", "table_periods", "table_ablation_epochs",
		"table_ablation_safeguard", "table_weibull", "table_dist_sensitivity",
	} {
		if !names[want] {
			t.Errorf("campaign is missing scenario %q", want)
		}
	}
}

// TestQuickstartCampaignLoads checks the hand-written quickstart example
// (the one CI runs) validates against the engine.
func TestQuickstartCampaignLoads(t *testing.T) {
	c, err := scenario.LoadFile(campaignPath("quickstart"))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range c.Scenarios {
		total += scenario.CellCount(c, s)
	}
	if total == 0 {
		t.Error("quickstart campaign expands to zero cells")
	}
}
