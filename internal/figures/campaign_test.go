package figures

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"abftckpt/internal/scenario"
)

// paperCampaignPath is the committed JSON rendition of PaperCampaign; it is
// what `ftcampaign -spec examples/campaigns/paper.json` runs.
var paperCampaignPath = filepath.Join("..", "..", "examples", "campaigns", "paper.json")

// TestPaperCampaignValidates checks the full evaluation campaign expands
// cleanly and names every artifact of the paper evaluation.
func TestPaperCampaignValidates(t *testing.T) {
	c := PaperCampaign(100, 42, true)
	if err := c.Validate(); err != nil {
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
	// Model-only mode drops exactly the simulation-backed scenarios.
	modelOnly := PaperCampaign(100, 42, false)
	if err := modelOnly.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(c.Scenarios)-len(modelOnly.Scenarios), 5; got != want {
		t.Errorf("withSim adds %d scenarios, want %d", got, want)
	}
}

// TestPaperCampaignFile pins the committed paper.json to the PaperCampaign
// builder (run with -update after changing either).
func TestPaperCampaignFile(t *testing.T) {
	c := PaperCampaign(100, 42, true)
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile(paperCampaignPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(paperCampaignPath)
	if err != nil {
		t.Fatalf("missing %s (run with -update): %v", paperCampaignPath, err)
	}
	if !bytes.Equal(want, data) {
		t.Errorf("%s diverged from figures.PaperCampaign (run with -update)", paperCampaignPath)
	}
	// The committed file must load through the strict JSON parser.
	if _, err := scenario.LoadFile(paperCampaignPath); err != nil {
		t.Errorf("committed campaign does not load: %v", err)
	}
}

// TestQuickstartCampaignLoads checks the hand-written quickstart example
// (the one CI runs) validates against the engine.
func TestQuickstartCampaignLoads(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "campaigns", "quickstart.json")
	c, err := scenario.LoadFile(path)
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
