package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Tolerance bounds the regression a gated benchmark may show before
// Compare flags it.
type Tolerance struct {
	// NsFrac is the allowed fractional ns/op increase (0.15 = +15%) on
	// gated benchmarks, applied after calibration normalization.
	NsFrac float64
	// Allocs is the allowed absolute allocs/op increase on gated
	// benchmarks. The default 0 means any new allocation on a gated path
	// fails the gate; the campaign benchmarks' counts spread by 1-2
	// allocs/op between runs of one tree, so they can flake at their
	// baseline (see ROADMAP.md, item 1).
	Allocs int64
	// AllowRemoved accepts gated benchmarks that exist in the baseline but
	// not in the current run. By default a disappearing gated benchmark is
	// a regression: silently dropping it would defeat the gate.
	AllowRemoved bool
}

// DefaultTolerance matches the CI gate: 15% ns/op, zero new allocations.
func DefaultTolerance() Tolerance { return Tolerance{NsFrac: 0.15} }

// Status classifies one benchmark's delta.
type Status string

const (
	StatusOK       Status = "ok"
	StatusImproved Status = "improved"
	StatusRegress  Status = "regressed"
	StatusNew      Status = "new"
	StatusRemoved  Status = "removed"
)

// Delta is the comparison of one benchmark between two reports.
type Delta struct {
	Name   string `json:"name"`
	Gated  bool   `json:"gated"`
	Status Status `json:"status"`
	// BaseNs and CurNs are raw ns/op; NormNs is CurNs scaled by the
	// calibration ratio (equal to CurNs when normalization is off).
	BaseNs     float64 `json:"base_ns_per_op,omitempty"`
	CurNs      float64 `json:"cur_ns_per_op,omitempty"`
	NormNs     float64 `json:"norm_ns_per_op,omitempty"`
	NsRatio    float64 `json:"ns_ratio,omitempty"` // NormNs / BaseNs
	BaseAllocs int64   `json:"base_allocs_per_op"`
	CurAllocs  int64   `json:"cur_allocs_per_op"`
	Reason     string  `json:"reason,omitempty"`
}

// Comparison is the outcome of comparing a current report to a baseline.
type Comparison struct {
	// Scale is the calibration ratio baseline/current applied to current
	// ns/op readings (1 when either report lacks calibration).
	Scale float64 `json:"scale"`
	// Deltas covers the union of both reports' benchmarks, sorted by name.
	Deltas []Delta `json:"deltas"`
	// Regressions names the gated benchmarks that failed the gate.
	Regressions []string `json:"regressions,omitempty"`
}

// OK reports whether the gate passes.
func (c *Comparison) OK() bool { return len(c.Regressions) == 0 }

// Compare evaluates cur against base under tol. Benchmarks present only in
// cur are "new" (never failing: adding coverage must not break CI);
// benchmarks present only in base are "removed" and fail the gate when
// gated, unless tol.AllowRemoved.
func Compare(base, cur *Report, tol Tolerance) *Comparison {
	cmp := &Comparison{Scale: 1}
	if base.CalibrationNsPerOp > 0 && cur.CalibrationNsPerOp > 0 {
		cmp.Scale = base.CalibrationNsPerOp / cur.CalibrationNsPerOp
	}
	names := map[string]bool{}
	for _, r := range base.Results {
		names[r.Name] = true
	}
	for _, r := range cur.Results {
		names[r.Name] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)

	for _, name := range ordered {
		b, inBase := base.Lookup(name)
		c, inCur := cur.Lookup(name)
		switch {
		case !inBase:
			cmp.Deltas = append(cmp.Deltas, Delta{
				Name: name, Gated: c.Gated, Status: StatusNew,
				CurNs: c.NsPerOp, NormNs: c.NsPerOp * cmp.Scale, CurAllocs: c.AllocsPerOp,
				Reason: "not in baseline (update the baseline to gate it)",
			})
		case !inCur:
			d := Delta{
				Name: name, Gated: b.Gated, Status: StatusRemoved,
				BaseNs: b.NsPerOp, BaseAllocs: b.AllocsPerOp,
			}
			if b.Gated && !tol.AllowRemoved {
				d.Status = StatusRegress
				d.Reason = "gated benchmark missing from current run"
				cmp.Regressions = append(cmp.Regressions, name)
			}
			cmp.Deltas = append(cmp.Deltas, d)
		default:
			d := Delta{
				Name: name, Gated: b.Gated || c.Gated, Status: StatusOK,
				BaseNs: b.NsPerOp, CurNs: c.NsPerOp, NormNs: c.NsPerOp * cmp.Scale,
				BaseAllocs: b.AllocsPerOp, CurAllocs: c.AllocsPerOp,
			}
			if b.NsPerOp > 0 {
				d.NsRatio = d.NormNs / b.NsPerOp
			}
			var reasons []string
			if d.Gated && b.NsPerOp > 0 && d.NormNs > b.NsPerOp*(1+tol.NsFrac) {
				reasons = append(reasons, fmt.Sprintf("ns/op +%.1f%% exceeds +%.0f%% tolerance",
					(d.NsRatio-1)*100, tol.NsFrac*100))
			}
			if d.Gated && c.AllocsPerOp > b.AllocsPerOp+tol.Allocs {
				reasons = append(reasons, fmt.Sprintf("allocs/op %d > baseline %d (+%d allowed)",
					c.AllocsPerOp, b.AllocsPerOp, tol.Allocs))
			}
			if len(reasons) > 0 {
				d.Status = StatusRegress
				d.Reason = strings.Join(reasons, "; ")
				cmp.Regressions = append(cmp.Regressions, name)
			} else if d.NsRatio > 0 && d.NsRatio < 0.90 {
				d.Status = StatusImproved
			}
			cmp.Deltas = append(cmp.Deltas, d)
		}
	}
	return cmp
}

// Format renders the comparison as an aligned text table.
func (c *Comparison) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %14s %14s %8s %8s  %s\n",
		"benchmark", "base ns/op", "cur ns/op", "ratio", "allocs", "status")
	for _, d := range c.Deltas {
		ratio := "-"
		if d.NsRatio > 0 {
			ratio = fmt.Sprintf("%.3f", d.NsRatio)
		}
		gate := ""
		if d.Gated {
			gate = " [gated]"
		}
		status := string(d.Status) + gate
		if d.Reason != "" {
			status += ": " + d.Reason
		}
		fmt.Fprintf(&sb, "%-28s %14s %14s %8s %8s  %s\n",
			d.Name, fmtNs(d.BaseNs), fmtNs(d.NormNs), ratio,
			fmt.Sprintf("%d→%d", d.BaseAllocs, d.CurAllocs), status)
	}
	if c.Scale != 1 {
		fmt.Fprintf(&sb, "(current ns/op normalized by calibration ratio %.3f)\n", c.Scale)
	}
	return sb.String()
}

func fmtNs(ns float64) string {
	if ns <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", ns)
}
