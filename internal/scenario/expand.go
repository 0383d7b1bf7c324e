package scenario

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"abftckpt/internal/model"
	"abftckpt/internal/plot"
	"abftckpt/internal/rng"
	"abftckpt/internal/stats"
	"abftckpt/internal/sweep"
)

// expansion is a resolved spec: its artifact names, its cells and the
// closure assembling cell results (in cell order) into artifacts.
type expansion struct {
	spec      *Spec
	artifacts []string
	cells     []CellSpec
	assemble  func(results []CellResult) ([]Artifact, error)
}

// kind is one scenario kind: its name, the kind-specific JSON fields it
// accepts (name, kind, title, notes and options always apply) and its
// expander.
type kind struct {
	name   string
	fields []string
	expand func(s *Spec, c *Campaign) (*expansion, error)
}

// kinds is the only place that knows the scenario kinds, listed in the
// order error messages name them. seed, reps, share_traces and precision
// only drive simulation cells, so only the simulation-backed kinds list
// them: an analytic kind would silently ignore them.
var kinds = []kind{
	{KindHeatmap, []string{"protocol", "platform", "platform_overrides", "output", "mtbf_minutes", "alphas",
		"distribution", "render", "seed", "reps", "share_traces", "precision"}, (*Spec).expandHeatmap},
	{KindScaling, []string{"nodes", "series"}, (*Spec).expandScaling},
	{KindPoints, []string{"at_nodes", "rows"}, (*Spec).expandPoints},
	{KindPeriods, []string{"ckpt_costs", "mtbfs", "downtime"}, (*Spec).expandPeriods},
	{KindAblation, []string{"variant", "platform", "protocol", "nodes"}, (*Spec).expandAblation},
	{KindSensitivity, []string{"platform", "platform_overrides", "mtbf", "alpha", "label", "cases",
		"seed", "reps", "share_traces", "precision"}, (*Spec).expandSensitivity},
	{KindSilentHeatmap, []string{"platform", "platform_overrides", "output", "mtbe_minutes", "verify_costs",
		"recovery", "silent", "distribution", "render", "seed", "reps"}, (*Spec).expandSilentHeatmap},
	{KindMultiLevelScaling, []string{"output", "nodes", "ml_series", "distribution", "seed", "reps"},
		(*Spec).expandMultiLevelScaling},
}

// lookupKind returns the table entry of a kind name.
func lookupKind(name string) (*kind, error) {
	if i := slices.IndexFunc(kinds, func(k kind) bool { return k.name == name }); i >= 0 {
		return &kinds[i], nil
	}
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	if name == "" {
		return nil, fmt.Errorf("kind is required (one of %s)", strings.Join(names, ", "))
	}
	return nil, fmt.Errorf("unknown kind %q (one of %s)", name, strings.Join(names, ", "))
}

// commonFields are the Spec fields every kind accepts, by JSON name.
var commonFields = []string{"name", "kind", "title", "notes", "options"}

// setFields reports which kind-specific spec fields are set, by JSON name in
// declaration order. A slice counts as set only when non-empty (so
// "series": [] stays unset), a pointer when non-nil, a scalar when non-zero.
func (s *Spec) setFields() []string {
	v := reflect.ValueOf(s).Elem()
	var out []string
	for i := range v.NumField() {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		f := v.Field(i)
		set := !f.IsZero()
		if f.Kind() == reflect.Slice {
			set = f.Len() > 0
		}
		if set && !slices.Contains(commonFields, name) {
			out = append(out, name)
		}
	}
	return out
}

// checkFields rejects fields that exist in the schema but do not apply to
// the spec's kind, so a misplaced field fails loudly instead of silently
// running the kind's default.
func (k *kind) checkFields(s *Spec) error {
	for _, f := range s.setFields() {
		if !slices.Contains(k.fields, f) {
			return fmt.Errorf("field %q does not apply to kind %q (allowed: %s)",
				f, k.name, strings.Join(k.fields, ", "))
		}
	}
	return nil
}

// expand resolves the spec against the campaign defaults, validates it, and
// returns its cell grid and assembler. Every error names the scenario.
func (s *Spec) expand(c *Campaign) (ex *expansion, err error) {
	defer func() {
		if err != nil {
			ex, err = nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}()
	if err := s.Options.Validate(); err != nil {
		return nil, err
	}
	if s.Reps < 0 {
		return nil, fmt.Errorf("reps must be non-negative")
	}
	k, err := lookupKind(s.Kind)
	if err != nil {
		return nil, err
	}
	if err := k.checkFields(s); err != nil {
		return nil, err
	}
	if ex, err = k.expand(s, c); err != nil {
		return nil, err
	}
	for i := range ex.cells {
		if err := ex.cells[i].Validate(); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return ex, nil
}

// maxScenarioCells bounds the cell grid of one scenario so a mistyped (or
// fuzzed) pair of dense axes fails validation instead of materializing an
// astronomically large cell slice. The paper's densest scenario is 399
// cells.
const maxScenarioCells = 20_000

// checkCells rejects a grid of n cells beyond maxScenarioCells. Every
// expander calls it before it allocates a cell.
func (s *Spec) checkCells(n int) error {
	if n > maxScenarioCells {
		return fmt.Errorf("%s grid has %d cells, exceeding the %d-cell limit", s.Kind, n, maxScenarioCells)
	}
	return nil
}

// CellCount reports how many cells a scenario expands into under the
// campaign's defaults (0 when the spec is invalid). Used by dry runs.
func CellCount(c *Campaign, s *Spec) int {
	ex, err := s.expand(c)
	if err != nil {
		return 0
	}
	return len(ex.cells)
}

// valueOr returns *p, or def when p is nil.
func valueOr[T any](p *T, def T) T {
	if p != nil {
		return *p
	}
	return def
}

// seed returns the spec seed, falling back to the campaign default.
func (s *Spec) seed(c *Campaign) uint64 {
	return valueOr(s.Seed, c.seed())
}

// repsOr returns the spec repetition count, falling back to the campaign
// default.
func (s *Spec) repsOr(c *Campaign) int {
	if s.Reps > 0 {
		return s.Reps
	}
	return c.reps()
}

// fixedPlatform resolves the spec's fixed platform (default paper-fig7)
// with its overrides applied.
func (s *Spec) fixedPlatform() (Platform, model.Params, error) {
	plat, err := LookupPlatform(cmp.Or(s.Platform, "paper-fig7"))
	if err != nil {
		return Platform{}, model.Params{}, err
	}
	return plat, s.PlatformOverrides.apply(plat.Params), nil
}

// distOrExp canonicalizes an optional distribution to the exponential
// default, so equal scenarios hash equally however they spell the default.
func distOrExp(d *DistSpec) *DistSpec {
	if d == nil {
		return &DistSpec{Name: DistExponential}
	}
	cp := *d
	if cp.Name == DistExponential {
		cp.Shape = 0
	}
	return &cp
}

// Heatmap output variants.
const (
	OutputModel = "model"
	OutputSim   = "sim"
	OutputDiff  = "diff"
)

// simOnlyFields only drive simulation cells, so the analytic output rejects
// them: accepting them would let a user believe e.g. a Weibull failure law
// took effect.
var simOnlyFields = []string{"distribution", "seed", "reps", "share_traces", "precision"}

// output defaults the spec output to allowed[0] (model) and checks it
// against the kind's allowed outputs; allowed[1:] are the simulating ones.
func (s *Spec) output(allowed ...string) (string, error) {
	out := cmp.Or(s.Output, allowed[0])
	if !slices.Contains(allowed, out) {
		return "", fmt.Errorf("unknown output %q (want %s)", s.Output, orList(allowed))
	}
	if out == OutputModel {
		set := s.setFields()
		for _, f := range simOnlyFields {
			if slices.Contains(set, f) {
				return "", fmt.Errorf("field %q only applies to output %s", f, orList(allowed[1:]))
			}
		}
	}
	return out, nil
}

// orList joins names as "a, b or c".
func orList(names []string) string {
	if len(names) == 1 {
		return names[0]
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// heatmapGrid is what the fail-stop and silent-error heatmap kinds share:
// one output variant over a ys x xs grid, laid out row-major, the model
// cells first and the simulation cells after them (both for output diff).
type heatmapGrid struct {
	output         string
	title          string
	xLabel, yLabel string
	xs, ys         []float64
	modelWaste     func(CellResult) float64
}

// heatmapTitle is the spec title, or the default title of the output
// variant: head names the plotted waste, diffHead the difference panel.
func (s *Spec) heatmapTitle(output, head, diffHead, desc string, reps int) string {
	switch {
	case s.Title != "":
		return s.Title
	case output == OutputSim:
		return fmt.Sprintf("%s: Simulation (%d runs/cell)", head, reps)
	case output == OutputDiff:
		return diffHead + ": Difference WASTE_simul - WASTE_model"
	}
	return fmt.Sprintf("%s: Model (%s)", head, desc)
}

// cells lays out the model grid and the simulation grid as the output
// needs them, then any extra grids, each row-major.
func (g *heatmapGrid) cells(modelCell, simCell func(row, col int) CellSpec, extra ...func(row, col int) CellSpec) []CellSpec {
	var grids []func(row, col int) CellSpec
	if g.output != OutputSim {
		grids = append(grids, modelCell)
	}
	if g.output != OutputModel {
		grids = append(grids, simCell)
	}
	grids = append(grids, extra...)
	cells := make([]CellSpec, 0, len(grids)*len(g.ys)*len(g.xs))
	for _, at := range grids {
		for row := range g.ys {
			for col := range g.xs {
				cells = append(cells, at(row, col))
			}
		}
	}
	return cells
}

// heatmapArtifact assembles the heatmap of model waste, simulated waste or
// their difference.
func (s *Spec) heatmapArtifact(g *heatmapGrid, results []CellResult) Artifact {
	lo, hi := 0.0, 1.0
	if g.output == OutputDiff {
		lo, hi = -0.14, 0.14
	}
	if s.Render != nil {
		lo, hi = s.Render.Lo, s.Render.Hi
	}
	rows, cols := len(g.ys), len(g.xs)
	z := sweep.NewMatrix(rows, cols)
	for i := 0; i < rows*cols; i++ {
		var v float64
		switch g.output {
		case OutputModel:
			v = g.modelWaste(results[i])
		case OutputSim:
			v = float64(results[i].Sim.WasteMean)
		case OutputDiff:
			v = float64(results[rows*cols+i].Sim.WasteMean) - g.modelWaste(results[i])
		}
		z.Set(i/cols, i%cols, v)
	}
	return Artifact{
		Name: s.Name,
		Heatmap: &plot.Heatmap{
			Title: g.title, XLabel: g.xLabel, YLabel: g.yLabel, Xs: g.xs, Ys: g.ys, Z: z,
		},
		RenderLo: lo,
		RenderHi: hi,
	}
}

// precisionColumns are the per-cell columns of a _precision table, filled
// by precisionCells.
var precisionColumns = []string{"waste", "ci95", "runs", "reps_cap", "stopped", "cv_ratio"}

// precisionCells formats one simulation cell under precisionColumns.
func precisionCells(res *SimCellResult) []string {
	return []string{
		fmt.Sprintf("%.4f", float64(res.WasteMean)),
		fmt.Sprintf("%.4f", float64(res.WasteCI95)),
		fmt.Sprintf("%d", res.Runs),
		fmt.Sprintf("%d", res.RepsCap),
		fmt.Sprintf("%v", res.Stopped),
		fmt.Sprintf("%.3f", float64(res.CVVarianceRatio)),
	}
}

func (s *Spec) expandHeatmap(c *Campaign) (*expansion, error) {
	output, err := s.output(OutputModel, OutputSim, OutputDiff)
	if err != nil {
		return nil, err
	}
	if s.Protocol == "" {
		return nil, fmt.Errorf("heatmap specs need a protocol")
	}
	proto, err := ParseProtocol(s.Protocol)
	if err != nil {
		return nil, err
	}
	baseline := ""
	var baseProto model.Protocol
	if p := s.Precision; p != nil {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if p.Baseline != "" {
			if output != OutputSim {
				return nil, fmt.Errorf("precision baseline requires output %q", OutputSim)
			}
			if !s.ShareTraces {
				return nil, fmt.Errorf("precision baseline requires share_traces: paired differences need identical failure realizations")
			}
			bp, err := ParseProtocol(p.Baseline)
			if err != nil {
				return nil, err
			}
			if p.Baseline == s.Protocol {
				return nil, fmt.Errorf("precision baseline %q must differ from the protocol under study", p.Baseline)
			}
			baseline, baseProto = p.Baseline, bp
		}
	}
	plat, tmpl, err := s.fixedPlatform()
	if err != nil {
		return nil, err
	}
	mtbfMinutes, err := s.MTBFMinutes.Resolve(sweep.Linspace(60, 240, 19))
	if err != nil {
		return nil, err
	}
	alphas, err := s.Alphas.Resolve(sweep.Linspace(0, 1, 21))
	if err != nil {
		return nil, err
	}
	if len(mtbfMinutes) == 0 || len(alphas) == 0 {
		return nil, fmt.Errorf("heatmap axes must be non-empty")
	}
	if err := s.checkCells(len(mtbfMinutes) * len(alphas)); err != nil {
		return nil, err
	}
	reps := s.repsOr(c)
	seed := s.seed(c)
	opts := s.Options.model()
	dist := distOrExp(s.Distribution)
	g := &heatmapGrid{
		output: output,
		title:  s.heatmapTitle(output, fmt.Sprintf("Waste of %v", proto), fmt.Sprint(proto), plat.Desc, reps),
		xLabel: "MTBF system (minutes)",
		yLabel: "Ratio of time spent in Library Phase (alpha)",
		xs:     mtbfMinutes,
		ys:     alphas,
		modelWaste: func(r CellResult) float64 {
			return float64(r.Model.Waste)
		},
	}

	// The baseline grid keeps per-replica waste vectors so the assembler can
	// compute paired-difference CIs; KeepReplicas is forced on both grids.
	keepReplicas := baseline != ""
	cellAt := func(op, protocol string, protoNum model.Protocol) func(row, col int) CellSpec {
		return func(row, col int) CellSpec {
			p := tmpl
			p.Alpha = alphas[row]
			p.Mu = mtbfMinutes[col] * model.Minute
			cell := CellSpec{Op: op, Protocol: protocol, Params: &p, Options: opts}
			if op == OpSim {
				cell.Epochs = 1
				cell.Reps = reps
				// With share_traces the protocol stays out of the seed path,
				// so same-seed specs over the same grid observe the same
				// failure realizations per point.
				if s.ShareTraces {
					cell.Seed = rng.At(seed, uint64(row), uint64(col))
				} else {
					cell.Seed = rng.At(seed, uint64(protoNum), uint64(row), uint64(col))
				}
				cell.Dist = dist
				if s.Precision != nil {
					cell.Precision = s.Precision.cell(keepReplicas)
				}
			}
			return cell
		}
	}
	var extra []func(row, col int) CellSpec
	if baseline != "" {
		extra = append(extra, cellAt(OpSim, baseline, baseProto))
	}
	cells := g.cells(cellAt(OpModel, s.Protocol, proto), cellAt(OpSim, s.Protocol, proto), extra...)

	assemble := func(results []CellResult) ([]Artifact, error) {
		arts := []Artifact{s.heatmapArtifact(g, results)}
		if s.Precision == nil {
			return arts, nil
		}
		// CI columns are opt-in: they appear only on the _precision table a
		// precision block requests, so existing artifacts stay byte-stable.
		rows, cols := len(alphas), len(mtbfMinutes)
		simOff := 0
		if output == OutputDiff {
			simOff = rows * cols
		}
		columns := append([]string{"mtbf_min", "alpha"}, precisionColumns...)
		if baseline != "" {
			columns = append(columns, baseline+" waste", "diff", "diff_ci95")
		}
		t := &plot.Table{Title: "Adaptive precision: " + g.title, Columns: columns}
		for i := 0; i < rows*cols; i++ {
			row, col := i/cols, i%cols
			res := results[simOff+i].Sim
			cells := append([]string{fmt.Sprintf("%g", mtbfMinutes[col]), fmt.Sprintf("%g", alphas[row])},
				precisionCells(res)...)
			if baseline != "" {
				base := results[simOff+rows*cols+i].Sim
				iv, err := stats.PairedDifference(jsonFloats(res.Replicas), jsonFloats(base.Replicas), 0.05)
				if err != nil {
					return nil, fmt.Errorf("paired difference at cell %d: %w", i, err)
				}
				cells = append(cells,
					fmt.Sprintf("%.4f", float64(base.WasteMean)),
					fmt.Sprintf("%.4f", iv.Mean),
					fmt.Sprintf("%.4f", iv.Half))
			}
			t.AddRow(cells...)
		}
		arts = append(arts, Artifact{Name: s.Name + "_precision", Table: t})
		return arts, nil
	}
	artifacts := []string{s.Name}
	if s.Precision != nil {
		artifacts = append(artifacts, s.Name+"_precision")
	}
	return &expansion{spec: s, artifacts: artifacts, cells: cells, assemble: assemble}, nil
}

// jsonFloats converts a stored per-replica vector back to raw floats for
// the paired-difference estimator.
func jsonFloats(v []JSONFloat) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// resolveSeries turns a SeriesSpec into its study, protocol and name.
func resolveSeries(sp SeriesSpec) (model.WeakScaling, model.Protocol, string, error) {
	plat, err := LookupScalingPlatform(sp.Platform)
	if err != nil {
		return model.WeakScaling{}, 0, "", err
	}
	w, err := sp.Overrides.apply(plat.Scaling)
	if err != nil {
		return model.WeakScaling{}, 0, "", err
	}
	w.AggregateEpochs = valueOr(sp.AggregateEpochs, w.AggregateEpochs)
	proto, err := ParseProtocol(sp.Protocol)
	if err != nil {
		return model.WeakScaling{}, 0, "", err
	}
	return w, proto, cmp.Or(sp.Name, proto.String()), nil
}

func (s *Spec) expandScaling(_ *Campaign) (*expansion, error) {
	if len(s.Series) == 0 {
		return nil, fmt.Errorf("scaling specs need at least one series")
	}
	nodes, err := s.Nodes.Resolve(model.DefaultNodeCounts())
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("node axis must be non-empty")
	}
	n := len(nodes) * len(s.Series)
	if err := s.checkCells(n); err != nil {
		return nil, err
	}
	opts := s.Options.model()
	type series struct {
		name  string
		study model.WeakScaling
	}
	resolved := make([]series, 0, len(s.Series))
	cells := make([]CellSpec, 0, n)
	for _, sp := range s.Series {
		w, _, name, err := resolveSeries(sp)
		if err != nil {
			return nil, err
		}
		resolved = append(resolved, series{name: name, study: w})
		for _, n := range nodes {
			study := w
			cells = append(cells, CellSpec{
				Op: OpScaling, Protocol: sp.Protocol, Scaling: &study, Nodes: n, Options: opts,
			})
		}
	}
	title := cmp.Or(s.Title, s.Name)
	assemble := func(results []CellResult) ([]Artifact, error) {
		waste := &plot.LineChart{
			Title: title + " - waste", XLabel: "Nodes", YLabel: "Waste", Xs: nodes, LogX: true,
		}
		faults := &plot.LineChart{
			Title: title + " - expected faults", XLabel: "Nodes", YLabel: "# Faults", Xs: nodes, LogX: true,
		}
		for si, sr := range resolved {
			w := make([]float64, len(nodes))
			f := make([]float64, len(nodes))
			for ni := range nodes {
				res := results[si*len(nodes)+ni].Model
				w[ni] = float64(res.Waste)
				if math.IsInf(float64(res.ExpectedFaults), 1) {
					f[ni] = math.NaN() // infeasible: no finite fault count
				} else {
					f[ni] = float64(res.ExpectedFaults)
				}
			}
			waste.Series = append(waste.Series, plot.Series{Name: sr.name, Values: w})
			faults.Series = append(faults.Series, plot.Series{Name: sr.name, Values: f})
		}
		return []Artifact{
			{Name: s.Name + "_waste", Chart: waste},
			{Name: s.Name + "_faults", Chart: faults},
		}, nil
	}
	return &expansion{spec: s, artifacts: []string{s.Name + "_waste", s.Name + "_faults"}, cells: cells, assemble: assemble}, nil
}

func (s *Spec) expandPoints(_ *Campaign) (*expansion, error) {
	if len(s.Rows) == 0 {
		return nil, fmt.Errorf("points specs need at least one row")
	}
	if err := s.checkCells(len(s.Rows)); err != nil {
		return nil, err
	}
	cells := make([]CellSpec, 0, len(s.Rows))
	labels := make([]string, 0, len(s.Rows))
	opts := s.Options.model()
	for _, row := range s.Rows {
		nodes := valueOr(row.Nodes, valueOr(s.AtNodes, 0))
		if nodes <= 0 {
			return nil, fmt.Errorf("row %q needs nodes > 0 (set nodes or at_nodes)", row.Label)
		}
		w, _, _, err := resolveSeries(SeriesSpec{Platform: row.Platform, Protocol: row.Protocol, Overrides: row.Overrides})
		if err != nil {
			return nil, err
		}
		study := w
		cells = append(cells, CellSpec{
			Op: OpScaling, Protocol: row.Protocol, Scaling: &study, Nodes: nodes, Options: opts,
		})
		labels = append(labels, row.Label)
	}
	title := cmp.Or(s.Title, s.Name)
	assemble := func(results []CellResult) ([]Artifact, error) {
		t := &plot.Table{
			Title:   title,
			Columns: []string{"configuration", "waste", "expected faults/app"},
		}
		for i, res := range results {
			t.AddRow(labels[i],
				fmt.Sprintf("%.4f", float64(res.Model.Waste)),
				fmt.Sprintf("%.1f", float64(res.Model.ExpectedFaults)))
		}
		return []Artifact{{Name: s.Name, Table: t}}, nil
	}
	return &expansion{spec: s, artifacts: []string{s.Name}, cells: cells, assemble: assemble}, nil
}

func (s *Spec) expandPeriods(_ *Campaign) (*expansion, error) {
	costs := s.CkptCosts
	if len(costs) == 0 {
		costs = []float64{model.Minute, 10 * model.Minute}
	}
	mtbfs := s.MTBFs
	if len(mtbfs) == 0 {
		mtbfs = []float64{model.Hour, 6 * model.Hour, model.Day}
	}
	d := valueOr(s.Downtime, model.Minute)
	if d < 0 {
		return nil, fmt.Errorf("downtime must be non-negative")
	}
	n := len(costs) * len(mtbfs)
	if err := s.checkCells(n); err != nil {
		return nil, err
	}
	cells := make([]CellSpec, 0, n)
	for _, cost := range costs {
		for _, mu := range mtbfs {
			// The paper's convention R = C: recovery reloads what was saved.
			cells = append(cells, CellSpec{
				Op: OpPeriods, Probe: &PeriodsProbe{C: cost, Mu: mu, D: d, R: cost},
			})
		}
	}
	title := cmp.Or(s.Title, fmt.Sprintf("Optimal checkpoint periods: Eq.(11) vs Young vs Daly (D=%s, R=C)", fmtDur(d)))
	assemble := func(results []CellResult) ([]Artifact, error) {
		t := &plot.Table{
			Title: title,
			Columns: []string{"C", "MTBF", "P eq11 (s)", "P young (s)", "P daly (s)",
				"waste@eq11", "waste@young", "waste@daly"},
		}
		i := 0
		for _, cost := range costs {
			for _, mu := range mtbfs {
				res := results[i].Periods
				i++
				if !res.Eq11Feasible {
					t.AddRow(fmtDur(cost), fmtDur(mu), "infeasible", "", "", "", "", "")
					continue
				}
				t.AddRow(fmtDur(cost), fmtDur(mu),
					fmt.Sprintf("%.0f", float64(res.Eq11)),
					fmt.Sprintf("%.0f", float64(res.Young)),
					fmt.Sprintf("%.0f", float64(res.Daly)),
					fmt.Sprintf("%.4f", float64(res.WasteEq11)),
					fmt.Sprintf("%.4f", float64(res.WasteYoung)),
					fmt.Sprintf("%.4f", float64(res.WasteDaly)))
			}
		}
		return []Artifact{{Name: s.Name, Table: t}}, nil
	}
	return &expansion{spec: s, artifacts: []string{s.Name}, cells: cells, assemble: assemble}, nil
}

// Ablation variants.
const (
	VariantEpochs    = "epochs"
	VariantSafeguard = "safeguard"
)

func (s *Spec) expandAblation(_ *Campaign) (*expansion, error) {
	if s.Variant != VariantEpochs && s.Variant != VariantSafeguard {
		return nil, fmt.Errorf("ablation variant must be %q or %q, got %q", VariantEpochs, VariantSafeguard, s.Variant)
	}
	plat, err := LookupScalingPlatform(cmp.Or(s.Platform, "paper-fig8-const-ckpt"))
	if err != nil {
		return nil, err
	}
	protocol := cmp.Or(s.Protocol, ProtoAbft)
	if _, err := ParseProtocol(protocol); err != nil {
		return nil, err
	}
	nodes, err := s.Nodes.Resolve([]float64{1_000, 10_000, 100_000, 1_000_000})
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("node axis must be non-empty")
	}
	n := 2 * len(nodes)
	if err := s.checkCells(n); err != nil {
		return nil, err
	}
	opts := s.Options.model()

	cells := make([]CellSpec, 0, n)
	var columns []string
	var title string
	switch s.Variant {
	case VariantEpochs:
		per := plat.Scaling
		per.AggregateEpochs = false
		agg := plat.Scaling
		agg.AggregateEpochs = true
		for _, n := range nodes {
			perStudy, aggStudy := per, agg
			cells = append(cells,
				CellSpec{Op: OpScaling, Protocol: protocol, Scaling: &perStudy, Nodes: n, Options: opts},
				CellSpec{Op: OpScaling, Protocol: protocol, Scaling: &aggStudy, Nodes: n, Options: opts})
		}
		columns = []string{"nodes", "waste per-epoch", "waste aggregated"}
		title = fmt.Sprintf("Ablation: composite waste, per-epoch forced checkpoints vs aggregated epochs (%s)", plat.Desc)
	case VariantSafeguard:
		off := opts
		off.Safeguard = false
		on := opts
		on.Safeguard = true
		for _, n := range nodes {
			study1, study2 := plat.Scaling, plat.Scaling
			cells = append(cells,
				CellSpec{Op: OpScaling, Protocol: protocol, Scaling: &study1, Nodes: n, Options: off},
				CellSpec{Op: OpScaling, Protocol: protocol, Scaling: &study2, Nodes: n, Options: on})
		}
		columns = []string{"nodes", "waste no safeguard", "waste safeguard", "ABFT active"}
		title = fmt.Sprintf("Ablation: composite waste with and without the ABFT-activation safeguard (%s)", plat.Desc)
	}
	title = cmp.Or(s.Title, title)
	variant := s.Variant
	assemble := func(results []CellResult) ([]Artifact, error) {
		t := &plot.Table{Title: title, Columns: columns}
		for i, n := range nodes {
			a, b := results[2*i].Model, results[2*i+1].Model
			if variant == VariantEpochs {
				t.AddRow(fmt.Sprintf("%.0f", n),
					fmt.Sprintf("%.4f", float64(a.Waste)),
					fmt.Sprintf("%.4f", float64(b.Waste)))
			} else {
				t.AddRow(fmt.Sprintf("%.0f", n),
					fmt.Sprintf("%.4f", float64(a.Waste)),
					fmt.Sprintf("%.4f", float64(b.Waste)),
					fmt.Sprintf("%v", b.ABFTActive))
			}
		}
		return []Artifact{{Name: s.Name, Table: t}}, nil
	}
	return &expansion{spec: s, artifacts: []string{s.Name}, cells: cells, assemble: assemble}, nil
}

func (s *Spec) expandSensitivity(c *Campaign) (*expansion, error) {
	if len(s.Cases) == 0 {
		return nil, fmt.Errorf("sensitivity specs need at least one case")
	}
	_, p, err := s.fixedPlatform()
	if err != nil {
		return nil, err
	}
	p.Mu = valueOr(s.MTBF, 2*model.Hour)
	p.Alpha = valueOr(s.Alpha, 0.8)
	reps := s.repsOr(c)
	seed := s.seed(c)
	opts := s.Options.model()
	if ps := s.Precision; ps != nil {
		if err := ps.Validate(); err != nil {
			return nil, err
		}
		if ps.Baseline != "" {
			return nil, fmt.Errorf("precision baseline only applies to heatmap specs; sensitivity pairs all protocols automatically under share_traces")
		}
	}
	// Under share_traces every protocol of a case sees the same failure
	// realizations, so the assembler can report paired protocol-difference
	// CIs; keeping the per-replica vectors enables that.
	keepReplicas := s.Precision != nil && s.ShareTraces

	n := len(s.Cases) * len(model.Protocols)
	if err := s.checkCells(n); err != nil {
		return nil, err
	}
	cells := make([]CellSpec, 0, n)
	for i, cs := range s.Cases {
		if cs.Name == "" {
			return nil, fmt.Errorf("case %d needs a name", i)
		}
		d := DistSpec{Name: cs.Dist, Shape: cs.Shape}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("case %q: %w", cs.Name, err)
		}
		for _, proto := range model.Protocols {
			cellSeed := rng.At(seed, uint64(i), uint64(proto))
			if s.ShareTraces {
				// All three protocols of the case observe the same failure
				// realizations (paired comparison, cohort-replayable).
				cellSeed = rng.At(seed, uint64(i))
			}
			if len(cs.SeedPath) > 0 {
				cellSeed = rng.At(seed, cs.SeedPath...)
			}
			params := p
			cell := CellSpec{
				Op: OpSim, Protocol: ProtocolName(proto), Params: &params, Options: opts,
				Epochs: 1, Reps: reps, Seed: cellSeed, Dist: distOrExp(&d),
			}
			if s.Precision != nil {
				cell.Precision = s.Precision.cell(keepReplicas)
			}
			cells = append(cells, cell)
		}
	}
	label := cmp.Or(s.Label, "distribution")
	title := cmp.Or(s.Title, fmt.Sprintf("Sensitivity: simulated waste vs failure process at equal MTBF (mu=%s, alpha=%g)",
		fmtDur(p.Mu), p.Alpha))
	cases := s.Cases
	assemble := func(results []CellResult) ([]Artifact, error) {
		t := &plot.Table{
			Title:   title,
			Columns: []string{label, "pure waste", "bi waste", "composite waste"},
		}
		for i, cs := range cases {
			row := []string{cs.Name}
			for j := range model.Protocols {
				res := results[i*len(model.Protocols)+j].Sim
				row = append(row, fmt.Sprintf("%.4f", float64(res.WasteMean)))
			}
			t.AddRow(row...)
		}
		arts := []Artifact{{Name: s.Name, Table: t}}
		if s.Precision == nil {
			return arts, nil
		}
		pt := &plot.Table{
			Title:   "Adaptive precision: " + title,
			Columns: append([]string{label, "protocol"}, precisionColumns...),
		}
		for i, cs := range cases {
			for j, proto := range model.Protocols {
				res := results[i*len(model.Protocols)+j].Sim
				pt.AddRow(append([]string{cs.Name, ProtocolName(proto)}, precisionCells(res)...)...)
			}
		}
		arts = append(arts, Artifact{Name: s.Name + "_precision", Table: pt})
		if !keepReplicas {
			return arts, nil
		}
		// Protocols of a case share failure traces, so replica r of protocol
		// A and replica r of protocol B saw the same arrivals: their waste
		// difference cancels the trace noise, and the paired CI is far
		// narrower than the two marginal CIs suggest.
		dt := &plot.Table{
			Title:   "Paired protocol differences (shared traces): " + title,
			Columns: []string{label, "pair", "diff", "diff_ci95", "pairs"},
		}
		for i, cs := range cases {
			for ai := range model.Protocols {
				for bi := ai + 1; bi < len(model.Protocols); bi++ {
					a := results[i*len(model.Protocols)+ai].Sim
					b := results[i*len(model.Protocols)+bi].Sim
					iv, err := stats.PairedDifference(jsonFloats(a.Replicas), jsonFloats(b.Replicas), 0.05)
					if err != nil {
						return nil, fmt.Errorf("paired difference for case %q: %w", cs.Name, err)
					}
					dt.AddRow(cs.Name,
						fmt.Sprintf("%s-%s", ProtocolName(model.Protocols[ai]), ProtocolName(model.Protocols[bi])),
						fmt.Sprintf("%.4f", iv.Mean),
						fmt.Sprintf("%.4f", iv.Half),
						fmt.Sprintf("%d", iv.N))
				}
			}
		}
		arts = append(arts, Artifact{Name: s.Name + "_pairs", Table: dt})
		return arts, nil
	}
	artifacts := []string{s.Name}
	if s.Precision != nil {
		artifacts = append(artifacts, s.Name+"_precision")
		if keepReplicas {
			artifacts = append(artifacts, s.Name+"_pairs")
		}
	}
	return &expansion{spec: s, artifacts: artifacts, cells: cells, assemble: assemble}, nil
}

// expandSilentHeatmap sweeps the silent-error model over an MTBE (minutes)
// x verification-cost (seconds) grid: one recovery mode, one platform
// supplying the work volume and checkpoint/restore costs. Output "model"
// evaluates the analytic model, "sim" Monte-Carlo campaigns, "diff" both
// (simulated minus model waste), mirroring the fail-stop heatmap kind.
func (s *Spec) expandSilentHeatmap(c *Campaign) (*expansion, error) {
	output, err := s.output(OutputModel, OutputSim, OutputDiff)
	if err != nil {
		return nil, err
	}
	recovery := cmp.Or(s.Recovery, model.SilentBackward.String())
	mode, err := model.ParseSilentRecovery(recovery)
	if err != nil {
		return nil, err
	}
	plat, tmpl, err := s.fixedPlatform()
	if err != nil {
		return nil, err
	}
	mtbeMinutes, err := s.MTBEMinutes.Resolve(sweep.Linspace(60, 240, 19))
	if err != nil {
		return nil, err
	}
	verifyCosts, err := s.VerifyCosts.Resolve(sweep.Linspace(30, 600, 20))
	if err != nil {
		return nil, err
	}
	if len(mtbeMinutes) == 0 || len(verifyCosts) == 0 {
		return nil, fmt.Errorf("silent_heatmap axes must be non-empty")
	}
	if err := s.checkCells(len(mtbeMinutes) * len(verifyCosts)); err != nil {
		return nil, err
	}
	// The platform supplies the work volume and the checkpoint/restore
	// costs; the silent block overrides them and the silent-only knobs.
	base := model.SilentParams{W: tmpl.T0, C: tmpl.C, R: tmpl.R, F: 30, Detect: 10}
	if sp := s.Silent; sp != nil {
		base.W = valueOr(sp.Work, base.W)
		base.C = valueOr(sp.Ckpt, base.C)
		base.R = valueOr(sp.Restore, base.R)
		base.F = valueOr(sp.Correct, base.F)
		base.Detect = valueOr(sp.Detect, base.Detect)
		base.Period = valueOr(sp.Period, base.Period)
	}
	reps := s.repsOr(c)
	seed := s.seed(c)
	dist := distOrExp(s.Distribution)
	head := fmt.Sprintf("Silent-error waste, %s recovery", mode)
	g := &heatmapGrid{
		output: output,
		title:  s.heatmapTitle(output, head, head, plat.Desc, reps),
		xLabel: "MTBE silent errors (minutes)",
		yLabel: "Verification cost (seconds)",
		xs:     mtbeMinutes,
		ys:     verifyCosts,
		modelWaste: func(r CellResult) float64 {
			return float64(r.SilentModel.Waste)
		},
	}

	cellAt := func(op string) func(row, col int) CellSpec {
		return func(row, col int) CellSpec {
			p := base
			p.V = verifyCosts[row]
			p.MuSilent = mtbeMinutes[col] * model.Minute
			cell := CellSpec{Op: op, Silent: &SilentCell{Params: p, Recovery: recovery}}
			if op == OpSilentSim {
				cell.Reps = reps
				cell.Seed = rng.At(seed, uint64(row), uint64(col))
				cell.Dist = dist
			}
			return cell
		}
	}
	cells := g.cells(cellAt(OpSilentModel), cellAt(OpSilentSim))
	assemble := func(results []CellResult) ([]Artifact, error) {
		return []Artifact{s.heatmapArtifact(g, results)}, nil
	}
	return &expansion{spec: s, artifacts: []string{s.Name}, cells: cells, assemble: assemble}, nil
}

// expandMultiLevelScaling sweeps two-level checkpointing configurations over
// a node axis: series i at n nodes runs with platform MTBF
// mtbf_at_base * base_nodes / n (the paper's mu = mu_ind / N relation). Each
// point always evaluates the model — its optimal (period, K) schedule feeds
// the schedule table — and output "sim" additionally Monte-Carlo campaigns
// that resolved schedule, so the chart reports simulated waste with the
// model's schedule baked into each cell spec.
func (s *Spec) expandMultiLevelScaling(c *Campaign) (*expansion, error) {
	output, err := s.output(OutputModel, OutputSim)
	if err != nil {
		return nil, err
	}
	if len(s.MLSeries) == 0 {
		return nil, fmt.Errorf("multilevel_scaling specs need at least one ml_series entry")
	}
	nodes, err := s.Nodes.Resolve(model.DefaultNodeCounts())
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("node axis must be non-empty")
	}
	budget := len(nodes) * len(s.MLSeries)
	if output == OutputSim {
		budget *= 2
	}
	if err := s.checkCells(budget); err != nil {
		return nil, err
	}
	reps := s.repsOr(c)
	seed := s.seed(c)
	dist := distOrExp(s.Distribution)

	type series struct {
		name   string
		params []model.MultiLevelParams // per node, schedule unresolved
	}
	resolved := make([]series, 0, len(s.MLSeries))
	cells := make([]CellSpec, 0, budget)
	for i, sp := range s.MLSeries {
		if sp.Name == "" {
			return nil, fmt.Errorf("ml_series entry %d needs a name", i)
		}
		mtbfAtBase := valueOr(sp.MTBFAtBase, 0)
		if mtbfAtBase <= 0 {
			return nil, fmt.Errorf("ml_series %q needs mtbf_at_base > 0", sp.Name)
		}
		baseNodes := valueOr(sp.BaseNodes, 1)
		if baseNodes <= 0 {
			return nil, fmt.Errorf("ml_series %q needs base_nodes > 0", sp.Name)
		}
		work := valueOr(sp.Work, model.Week)
		downtime := valueOr(sp.Downtime, model.Minute)
		sr := series{name: sp.Name}
		for _, n := range nodes {
			if n <= 0 {
				return nil, fmt.Errorf("node counts must be positive (got %g)", n)
			}
			p := model.MultiLevelParams{
				W: work, Mu: mtbfAtBase * baseNodes / n, D: downtime,
				C1: sp.C1, R1: sp.R1, C2: sp.C2, R2: sp.R2,
				Coverage: sp.Coverage, Period: sp.Period, K: sp.K,
			}
			sr.params = append(sr.params, p)
			params := p
			cells = append(cells, CellSpec{Op: OpMLModel, MultiLevel: &params})
		}
		resolved = append(resolved, sr)
	}
	if output == OutputSim {
		for si, sr := range resolved {
			for ni, p := range sr.params {
				// Bake the model-resolved schedule into the sim cell so its
				// spec (and cache key) fully describes the simulated run.
				r := model.EvaluateMultiLevel(p)
				params := p
				params.Period, params.K = r.Period, r.K
				cells = append(cells, CellSpec{
					Op: OpMLSim, MultiLevel: &params,
					Reps: reps, Seed: rng.At(seed, uint64(si), uint64(ni)), Dist: dist,
				})
			}
		}
	}

	title := cmp.Or(s.Title, s.Name)
	assemble := func(results []CellResult) ([]Artifact, error) {
		waste := &plot.LineChart{
			Title: title + " - waste", XLabel: "Nodes", YLabel: "Waste", Xs: nodes, LogX: true,
		}
		simOff := len(resolved) * len(nodes)
		for si, sr := range resolved {
			w := make([]float64, len(nodes))
			for ni := range nodes {
				if output == OutputSim {
					w[ni] = float64(results[simOff+si*len(nodes)+ni].Sim.WasteMean)
				} else {
					w[ni] = float64(results[si*len(nodes)+ni].MLModel.Waste)
				}
			}
			waste.Series = append(waste.Series, plot.Series{Name: sr.name, Values: w})
		}
		t := &plot.Table{
			Title:   "Two-level schedules: " + title,
			Columns: []string{"series", "nodes", "mtbf", "period (s)", "K", "feasible", "model waste"},
		}
		for si, sr := range resolved {
			for ni, n := range nodes {
				res := results[si*len(nodes)+ni].MLModel
				t.AddRow(sr.name,
					fmt.Sprintf("%.0f", n),
					fmtDur(sr.params[ni].Mu),
					fmt.Sprintf("%.0f", float64(res.Period)),
					fmt.Sprintf("%d", res.K),
					fmt.Sprintf("%v", res.Feasible),
					fmt.Sprintf("%.4f", float64(res.Waste)))
			}
		}
		return []Artifact{
			{Name: s.Name + "_waste", Chart: waste},
			{Name: s.Name + "_schedule", Table: t},
		}, nil
	}
	return &expansion{
		spec:      s,
		artifacts: []string{s.Name + "_waste", s.Name + "_schedule"},
		cells:     cells,
		assemble:  assemble,
	}, nil
}

// fmtDur renders a duration in seconds with the largest fitting unit, as
// used in table cells and default titles ("2h", "10min", "1d").
func fmtDur(seconds float64) string {
	switch {
	case seconds >= model.Day:
		return fmt.Sprintf("%.4gd", seconds/model.Day)
	case seconds >= model.Hour:
		return fmt.Sprintf("%.4gh", seconds/model.Hour)
	case seconds >= model.Minute:
		return fmt.Sprintf("%.4gmin", seconds/model.Minute)
	default:
		return fmt.Sprintf("%.4gs", seconds)
	}
}
