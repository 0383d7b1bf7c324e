package scenario

// Plan describes an expanded campaign before execution: how many cells it
// references, how many are unique after cross-scenario deduplication, and
// what every scenario will produce. Dry runs and the campaign server's job
// status are both built from a Plan.
type Plan struct {
	// Campaign is the campaign name.
	Campaign string `json:"campaign"`
	// Cells counts cell references across all scenarios; Unique
	// deduplicates shared cells.
	Cells  int `json:"cells"`
	Unique int `json:"unique"`
	// Cohorts counts groups of two or more unique simulation cells sharing
	// one failure process that replays (see SimProcessKey; exponential
	// processes never form cohorts); CohortCells counts the cells inside
	// those groups. The runner generates each group's failure streams once
	// and replays them, budget permitting.
	Cohorts     int `json:"cohorts,omitempty"`
	CohortCells int `json:"cohort_cells,omitempty"`
	// Scenarios lists the per-scenario breakdown in campaign order.
	Scenarios []ScenarioPlan `json:"scenarios"`
}

// ScenarioPlan is one scenario's slice of a Plan.
type ScenarioPlan struct {
	// Name and Kind identify the scenario.
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Cells counts the scenario's cell references (shared cells included).
	Cells int `json:"cells"`
	// Artifacts names the outputs the scenario will produce.
	Artifacts []string `json:"artifacts"`
}

// PlanCampaign validates and expands the campaign without executing
// anything, returning the cell plan.
func PlanCampaign(c *Campaign) (*Plan, error) {
	exs, err := c.expandAll()
	if err != nil {
		return nil, err
	}
	p := &Plan{Campaign: c.Name}
	unique := map[string]CellSpec{}
	var order []string // unique cells in first-reference order
	for _, ex := range exs {
		sp := ScenarioPlan{
			Name:      ex.spec.Name,
			Kind:      ex.spec.Kind,
			Cells:     len(ex.cells),
			Artifacts: append([]string(nil), ex.artifacts...),
		}
		for _, cell := range ex.cells {
			h := cell.Hash()
			if _, ok := unique[h]; !ok {
				unique[h] = cell
				order = append(order, h)
			}
		}
		p.Cells += len(ex.cells)
		p.Scenarios = append(p.Scenarios, sp)
	}
	p.Unique = len(unique)
	p.Cohorts, p.CohortCells = countCohorts(groupCohorts(order, func(h string) CellSpec { return unique[h] }))
	return p, nil
}
