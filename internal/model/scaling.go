package model

import (
	"encoding/json"
	"fmt"
	"math"
)

// ScalingLaw describes how a quantity grows when the node count grows by a
// factor s (relative to the baseline platform) under weak scaling.
type ScalingLaw int

const (
	// ScaleConstant keeps the quantity independent of the node count.
	ScaleConstant ScalingLaw = iota
	// ScaleSqrt grows the quantity as sqrt(s): the parallel completion time
	// of an O(n^3) kernel over O(n^2)=O(x) memory under Gustafson scaling.
	ScaleSqrt
	// ScaleLinear grows the quantity as s: e.g. checkpoint time proportional
	// to the total memory through a fixed-bandwidth bottleneck.
	ScaleLinear
	// ScaleInverse shrinks the quantity as 1/s: e.g. the platform MTBF when
	// individual-component reliability is constant.
	ScaleInverse
)

// String returns the law's name: "constant", "sqrt", "linear" or
// "inverse".
func (l ScalingLaw) String() string {
	switch l {
	case ScaleConstant:
		return "constant"
	case ScaleSqrt:
		return "sqrt"
	case ScaleLinear:
		return "linear"
	case ScaleInverse:
		return "inverse"
	default:
		return fmt.Sprintf("ScalingLaw(%d)", int(l))
	}
}

// ParseScalingLaw is the inverse of String: it maps "constant", "sqrt",
// "linear" or "inverse" back to the ScalingLaw constant.
func ParseScalingLaw(s string) (ScalingLaw, error) {
	switch s {
	case "constant":
		return ScaleConstant, nil
	case "sqrt":
		return ScaleSqrt, nil
	case "linear":
		return ScaleLinear, nil
	case "inverse":
		return ScaleInverse, nil
	default:
		return 0, fmt.Errorf("model: unknown scaling law %q (want constant, sqrt, linear or inverse)", s)
	}
}

// MarshalJSON encodes the law as its name ("constant", "sqrt", "linear",
// "inverse") so scenario files stay human-readable.
func (l ScalingLaw) MarshalJSON() ([]byte, error) {
	return json.Marshal(l.String())
}

// UnmarshalJSON decodes a law name written by MarshalJSON.
func (l *ScalingLaw) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParseScalingLaw(s)
	if err != nil {
		return err
	}
	*l = v
	return nil
}

// Factor returns the multiplier for a node-count ratio s = nodes/baseNodes.
func (l ScalingLaw) Factor(s float64) float64 {
	switch l {
	case ScaleConstant:
		return 1
	case ScaleSqrt:
		return math.Sqrt(s)
	case ScaleLinear:
		return s
	case ScaleInverse:
		return 1 / s
	default:
		panic("model: unknown scaling law")
	}
}

// WeakScaling describes the weak-scalability scenarios of Section V-C
// (Figures 8, 9, 10). All baseline values are given at BaseNodes nodes and
// extrapolated to other node counts through the scaling laws.
type WeakScaling struct {
	// BaseNodes is the reference platform size (10,000 in the paper).
	BaseNodes float64
	// EpochAtBase is the fault-free epoch duration at BaseNodes (60 s).
	EpochAtBase float64
	// AlphaAtBase is the LIBRARY fraction at BaseNodes (0.8).
	AlphaAtBase float64
	// MTBFAtBase is the platform MTBF at BaseNodes (1 day), scaled with
	// ScaleInverse in the number of nodes.
	MTBFAtBase float64
	// CkptAtBase is C = R at BaseNodes (60 s).
	CkptAtBase float64
	// CkptScaling is how C and R grow with node count. The paper's text
	// states ScaleLinear ("proportional to the total amount of memory") for
	// Figures 8 and 9 and ScaleConstant for Figure 10 (buddy checkpointing).
	CkptScaling ScalingLaw
	// GeneralScaling is how the GENERAL phase time grows: ScaleSqrt when
	// both phases are O(n^3) (Figure 8), ScaleConstant when the GENERAL
	// phase is O(n^2) (Figures 9 and 10).
	GeneralScaling ScalingLaw
	// LibraryScaling is how the LIBRARY phase time grows (ScaleSqrt: O(n^3)
	// kernels under Gustafson scaling).
	LibraryScaling ScalingLaw
	// Epochs is the number of epochs the application iterates over (1000).
	Epochs int
	// Downtime, Rho, Phi, Recons are scale-independent protocol
	// parameters: downtime and reconstruction time in seconds, rho a
	// fraction of memory in [0, 1], phi a slowdown factor >= 1.
	Downtime float64
	Rho      float64
	Phi      float64
	Recons   float64
	// AggregateEpochs controls how the composite protocol accounts for its
	// forced phase-switch checkpoints. When false (the faithful reading of
	// Section III), every one of the Epochs epochs pays its own forced
	// entry/exit partial checkpoints. When true, the whole application is
	// folded into a single epoch of Epochs*T0 and the forced checkpoints
	// are paid once (the per-epoch cost amortized away, as in the long-
	// phase regime of Section IV). The periodic protocols are oblivious to
	// epoch boundaries — their checkpoint stream spans the application — so
	// they are always evaluated on the aggregated application.
	AggregateEpochs bool
}

// Fig8Scenario returns the paper's Figure 8 scenario: both phases O(n^3),
// alpha fixed at 0.8, with the given checkpoint-cost scaling law (the paper
// states ScaleLinear; see docs/PAPER_MAP.md (Caveats) for the feasibility
// caveat and the ScaleConstant scalable-storage variant).
func Fig8Scenario(ckptScaling ScalingLaw) WeakScaling {
	return WeakScaling{
		BaseNodes:      10_000,
		EpochAtBase:    60 * Second,
		AlphaAtBase:    0.8,
		MTBFAtBase:     Day,
		CkptAtBase:     60 * Second,
		CkptScaling:    ckptScaling,
		GeneralScaling: ScaleSqrt,
		LibraryScaling: ScaleSqrt,
		Epochs:         1000,
		Downtime:       Minute,
		Rho:            0.8,
		Phi:            1.03,
		Recons:         2 * Second,
	}
}

// Fig9Scenario returns the Figure 9 scenario: LIBRARY phase O(n^3), GENERAL
// phase O(n^2) (constant parallel time), so alpha grows with the node count
// (0.55 at 1k, 0.8 at 10k, 0.92 at 100k, 0.975 at 1M).
func Fig9Scenario(ckptScaling ScalingLaw) WeakScaling {
	s := Fig8Scenario(ckptScaling)
	s.GeneralScaling = ScaleConstant
	return s
}

// Fig10Scenario returns the Figure 10 scenario: same as Figure 9 but with
// checkpoint and recovery time independent of the node count (C = R = 60 s).
func Fig10Scenario() WeakScaling {
	return Fig9Scenario(ScaleConstant)
}

// PhaseTimes returns the per-epoch GENERAL and LIBRARY durations at the
// given node count.
func (w WeakScaling) PhaseTimes(nodes float64) (tg, tl float64) {
	s := nodes / w.BaseNodes
	tg = (1 - w.AlphaAtBase) * w.EpochAtBase * w.GeneralScaling.Factor(s)
	tl = w.AlphaAtBase * w.EpochAtBase * w.LibraryScaling.Factor(s)
	return tg, tl
}

// Alpha returns the LIBRARY-phase time fraction at the given node count.
func (w WeakScaling) Alpha(nodes float64) float64 {
	tg, tl := w.PhaseTimes(nodes)
	if tg+tl == 0 {
		return 0
	}
	return tl / (tg + tl)
}

// ParamsAt instantiates the model parameters for one epoch at the given node
// count. If AggregateEpochs is set, the returned Params describe the whole
// application as a single epoch (T0 multiplied by Epochs).
func (w WeakScaling) ParamsAt(nodes float64) Params {
	k := 1.0
	if w.AggregateEpochs && w.Epochs > 1 {
		k = float64(w.Epochs)
	}
	return w.paramsAt(nodes, k)
}

// AggregatedParamsAt returns the whole-application parameters (phase times
// summed over all epochs) regardless of the AggregateEpochs flag.
func (w WeakScaling) AggregatedParamsAt(nodes float64) Params {
	k := float64(w.Epochs)
	if k < 1 {
		k = 1
	}
	return w.paramsAt(nodes, k)
}

func (w WeakScaling) paramsAt(nodes, k float64) Params {
	s := nodes / w.BaseNodes
	tg, tl := w.PhaseTimes(nodes)
	ckpt := w.CkptAtBase * w.CkptScaling.Factor(s)
	return Params{
		T0:     (tg + tl) * k,
		Alpha:  tl / (tg + tl),
		Mu:     w.MTBFAtBase * ScaleInverse.Factor(s),
		C:      ckpt,
		R:      ckpt,
		D:      w.Downtime,
		Rho:    w.Rho,
		Phi:    w.Phi,
		Recons: w.Recons,
	}
}

// EvaluateProtocol applies the model to one protocol at one node count over
// the whole application. PurePeriodicCkpt and BiPeriodicCkpt always see the
// aggregated application (their periodic checkpoint stream crosses epoch
// boundaries); AbftPeriodicCkpt pays per-epoch forced checkpoints unless
// AggregateEpochs is set.
func (w WeakScaling) EvaluateProtocol(proto Protocol, nodes float64, opts Options) Result {
	if proto == AbftPeriodicCkpt && !w.AggregateEpochs && w.Epochs > 1 {
		r := Evaluate(proto, w.paramsAt(nodes, 1), opts)
		k := float64(w.Epochs)
		r.TFinal *= k
		r.TFinalG *= k
		r.TFinalL *= k
		r.FaultFree *= k
		if !math.IsInf(r.ExpectedFaults, 1) {
			r.ExpectedFaults *= k
		}
		return r
	}
	return Evaluate(proto, w.AggregatedParamsAt(nodes), opts)
}

// ScalingPoint is the model output for one node count in a weak-scaling
// study, covering all three protocols.
type ScalingPoint struct {
	// Nodes is the platform size of this point.
	Nodes float64
	// Alpha is the LIBRARY-phase time fraction at this size (fraction of
	// work in [0, 1]).
	Alpha float64
	// Params are the resolved per-epoch parameters (durations in seconds).
	Params Params
	// Results holds the per-protocol model evaluation. For per-epoch mode
	// the reported TFinal and ExpectedFaults cover the full application
	// (Epochs epochs); Waste is scale-free.
	Results map[Protocol]Result
}

// Sweep evaluates the scenario at each node count, with safeguard and other
// options applied uniformly. See EvaluateProtocol for the epoch-accounting
// rules.
func (w WeakScaling) Sweep(nodeCounts []float64, opts Options) []ScalingPoint {
	points := make([]ScalingPoint, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		results := make(map[Protocol]Result, len(Protocols))
		for _, proto := range Protocols {
			results[proto] = w.EvaluateProtocol(proto, n, opts)
		}
		p := w.ParamsAt(n)
		points = append(points, ScalingPoint{Nodes: n, Alpha: p.Alpha, Params: p, Results: results})
	}
	return points
}

// DefaultNodeCounts returns the log-spaced node counts of Figures 8-10
// (1k to 1M, ~8 points per decade).
func DefaultNodeCounts() []float64 {
	var out []float64
	for x := 1000.0; ; x *= math.Pow(10, 1.0/8) {
		v := math.Round(x)
		if v >= 1_000_000 {
			break
		}
		out = append(out, v)
	}
	out = append(out, 1_000_000)
	return out
}
