package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"
)

// TestCommittedCampaignPlans fingerprints the cell plans of the committed
// evaluation campaigns: the unique-cell count and a SHA-256 over the
// ordered unique cell hashes. The goldens run these files shrunk, so this
// is what pins the full-size cells (reps 100, seed 42) the campaign
// benchmarks execute. An edit of a file that changes any cell fails here;
// update the pins only with a deliberate change of the evaluation.
func TestCommittedCampaignPlans(t *testing.T) {
	for _, tc := range []struct {
		file   string
		unique int
		sha256 string
	}{
		{"paper", 2788, "78903ee7682ea657c46ebd3ebcbca0e145996c544eaa5d478057ac4fb38db9c4"},
		{"silent", 1520, "16c7271a2fc6653e2563d8450afb524f18b1326d089b7cc88bd727e03131d728"},
		{"multilevel", 100, "3af7aa2975e3673dcd93a07577264f878501a8e910085831a4e5b33badabea0a"},
	} {
		c, err := LoadFile(filepath.Join("..", "..", "examples", "campaigns", tc.file+".json"))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanCampaign(c)
		if err != nil {
			t.Fatal(err)
		}
		exs, err := c.expandAll()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		sum := sha256.New()
		for _, ex := range exs {
			for _, cell := range ex.cells {
				if h := cell.Hash(); !seen[h] {
					seen[h] = true
					sum.Write([]byte(h + "\n"))
				}
			}
		}
		if len(seen) != plan.Unique {
			t.Errorf("%s: %d unique cell hashes, plan says %d", tc.file, len(seen), plan.Unique)
		}
		if got := hex.EncodeToString(sum.Sum(nil)); plan.Unique != tc.unique || got != tc.sha256 {
			t.Errorf("%s.json plans %d unique cells with fingerprint %s, want %d and %s",
				tc.file, plan.Unique, got, tc.unique, tc.sha256)
		}
	}
}
