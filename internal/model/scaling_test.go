package model

import (
	"math"
	"testing"
)

func TestScalingLawFactors(t *testing.T) {
	cases := []struct {
		law  ScalingLaw
		s    float64
		want float64
	}{
		{ScaleConstant, 100, 1},
		{ScaleSqrt, 100, 10},
		{ScaleLinear, 100, 100},
		{ScaleInverse, 100, 0.01},
		{ScaleSqrt, 0.1, math.Sqrt(0.1)},
	}
	for _, tc := range cases {
		if got := tc.law.Factor(tc.s); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("%v.Factor(%v) = %v, want %v", tc.law, tc.s, got, tc.want)
		}
	}
	for _, law := range []ScalingLaw{ScaleConstant, ScaleSqrt, ScaleLinear, ScaleInverse} {
		if law.String() == "" {
			t.Error("empty scaling-law name")
		}
	}
}

// The paper's alpha values for Figure 9: 0.55 at 1k, 0.8 at 10k, 0.92 at
// 100k, 0.975 at 1M nodes.
func TestFig9AlphaValues(t *testing.T) {
	w := Fig9Scenario(ScaleConstant)
	cases := []struct{ nodes, want float64 }{
		{1_000, 0.55},
		{10_000, 0.80},
		{100_000, 0.92},
		{1_000_000, 0.975},
	}
	for _, tc := range cases {
		got := w.Alpha(tc.nodes)
		if math.Abs(got-tc.want) > 0.01 {
			t.Errorf("alpha(%v) = %v, want %v", tc.nodes, got, tc.want)
		}
	}
}

// Figure 8 keeps alpha constant at 0.8 across scales.
func TestFig8AlphaConstant(t *testing.T) {
	w := Fig8Scenario(ScaleConstant)
	for _, nodes := range []float64{1_000, 10_000, 100_000, 1_000_000} {
		if got := w.Alpha(nodes); math.Abs(got-0.8) > 1e-9 {
			t.Errorf("alpha(%v) = %v, want 0.8", nodes, got)
		}
	}
}

func TestParamsAtBase(t *testing.T) {
	w := Fig8Scenario(ScaleLinear)
	p := w.ParamsAt(10_000)
	if !almostEqual(p.T0, 60, 1e-9) || !almostEqual(p.Mu, Day, 1e-9) ||
		!almostEqual(p.C, 60, 1e-9) || !almostEqual(p.Alpha, 0.8, 1e-9) {
		t.Errorf("baseline params wrong: %+v", p)
	}
}

func TestParamsAtScaled(t *testing.T) {
	w := Fig8Scenario(ScaleLinear)
	p := w.ParamsAt(1_000_000) // s = 100
	if !almostEqual(p.T0, 600, 1e-9) {
		t.Errorf("epoch at 1M = %v, want 600 (sqrt scaling)", p.T0)
	}
	if !almostEqual(p.Mu, 864, 1e-9) {
		t.Errorf("mu at 1M = %v, want 864", p.Mu)
	}
	if !almostEqual(p.C, 6000, 1e-9) {
		t.Errorf("C at 1M = %v, want 6000 (linear)", p.C)
	}
	wConst := Fig8Scenario(ScaleConstant)
	if got := wConst.ParamsAt(1_000_000).C; !almostEqual(got, 60, 1e-9) {
		t.Errorf("constant C at 1M = %v, want 60", got)
	}
}

func TestAggregateEpochs(t *testing.T) {
	w := Fig8Scenario(ScaleConstant)
	w.AggregateEpochs = true
	p := w.ParamsAt(10_000)
	if !almostEqual(p.T0, 60_000, 1e-9) {
		t.Errorf("aggregated T0 = %v, want 60000", p.T0)
	}
	if !almostEqual(p.Alpha, 0.8, 1e-9) {
		t.Errorf("aggregated alpha = %v", p.Alpha)
	}
}

// Headline shape of Figure 8 (scalable-storage variant): periodic waste
// rises steeply with node count while the composite overtakes it at scale;
// at 1M nodes ABFT&PeriodicCkpt wins.
func TestFig8ShapeScalableStorage(t *testing.T) {
	w := Fig8Scenario(ScaleConstant)
	w.AggregateEpochs = true
	pts := w.Sweep([]float64{1_000, 10_000, 100_000, 1_000_000}, Options{})

	// Periodic waste strictly increases with node count.
	for i := 1; i < len(pts); i++ {
		prev := pts[i-1].Results[PurePeriodicCkpt].Waste
		cur := pts[i].Results[PurePeriodicCkpt].Waste
		if cur <= prev {
			t.Errorf("pure periodic waste not increasing: %v -> %v", prev, cur)
		}
	}
	// At 1k nodes the composite pays the ABFT overhead and loses.
	w1k := pts[0].Results
	if !(w1k[AbftPeriodicCkpt].Waste > w1k[PurePeriodicCkpt].Waste) {
		t.Errorf("at 1k nodes composite %v should exceed pure %v",
			w1k[AbftPeriodicCkpt].Waste, w1k[PurePeriodicCkpt].Waste)
	}
	// At 1M nodes the composite wins against both periodic protocols.
	w1M := pts[3].Results
	if !(w1M[AbftPeriodicCkpt].Waste < w1M[BiPeriodicCkpt].Waste &&
		w1M[AbftPeriodicCkpt].Waste < w1M[PurePeriodicCkpt].Waste) {
		t.Errorf("at 1M nodes composite %v should beat bi %v and pure %v",
			w1M[AbftPeriodicCkpt].Waste, w1M[BiPeriodicCkpt].Waste, w1M[PurePeriodicCkpt].Waste)
	}
	// Bi is essentially never worse than pure (incremental checkpoints only
	// help). A sub-0.1%-waste tolerance absorbs the phase-boundary full
	// checkpoint Bi pays when phases are much shorter than the period.
	for _, pt := range pts {
		if pt.Results[BiPeriodicCkpt].Waste > pt.Results[PurePeriodicCkpt].Waste+1e-3 {
			t.Errorf("nodes=%v: bi %v worse than pure %v", pt.Nodes,
				pt.Results[BiPeriodicCkpt].Waste, pt.Results[PurePeriodicCkpt].Waste)
		}
	}
}

// The paper-stated linear checkpoint scaling drives every protocol
// infeasible at 1M nodes (recovery alone exceeds the MTBF) — the
// feasibility caveat recorded in docs/PAPER_MAP.md (Caveats).
func TestFig8LinearCkptInfeasibleAtExtremeScale(t *testing.T) {
	w := Fig8Scenario(ScaleLinear)
	w.AggregateEpochs = true
	p := w.ParamsAt(1_000_000)
	if p.Mu > p.D+p.R {
		t.Fatalf("expected mu %v below D+R %v", p.Mu, p.D+p.R)
	}
	for _, proto := range Protocols {
		if res := Evaluate(proto, p, Options{}); res.Feasible {
			t.Errorf("%v: expected infeasible at 1M nodes under linear ckpt scaling", proto)
		}
	}
}

// Paper claim (Figure 10 discussion): under the perfectly-scalable
// checkpointing hypothesis the periodic protocols still lose to the
// composite at 1M nodes, and reducing C and R by 10x (to 6 s) brings
// PurePeriodicCkpt to comparable performance.
func TestFig10ParityClaim(t *testing.T) {
	// Per-epoch mode (the faithful Section III reading: each epoch pays its
	// forced phase-switch checkpoints).
	w := Fig10Scenario()
	at1M := w.ParamsAt(1_000_000)

	pure60 := Evaluate(PurePeriodicCkpt, at1M, Options{})
	composite := Evaluate(AbftPeriodicCkpt, at1M, Options{})
	if !(composite.Waste < pure60.Waste) {
		t.Fatalf("composite %v should beat pure %v at 1M nodes", composite.Waste, pure60.Waste)
	}

	cheap := at1M
	cheap.C, cheap.R = 6, 6
	pure6 := Evaluate(PurePeriodicCkpt, cheap, Options{})
	// "Comparable performance": within a few points of waste.
	if math.Abs(pure6.Waste-composite.Waste) > 0.05 {
		t.Errorf("C=R=6s pure waste %v vs composite %v: not comparable", pure6.Waste, composite.Waste)
	}
}

// In the Figure 10 scenario the composite's waste stays nearly flat with
// node count (the paper: "appears to present a waste that is almost
// constant when the number of nodes increases").
func TestFig10CompositeFlat(t *testing.T) {
	w := Fig10Scenario()
	w.AggregateEpochs = true
	pts := w.Sweep([]float64{10_000, 100_000, 1_000_000}, Options{})
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, pt := range pts {
		v := pt.Results[AbftPeriodicCkpt].Waste
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo > 0.20 {
		t.Errorf("composite waste spread %v..%v too wide to call flat", lo, hi)
	}
	// And it must stay far below the pure-periodic waste at 1M.
	last := pts[len(pts)-1].Results
	if last[AbftPeriodicCkpt].Waste > 0.6*last[PurePeriodicCkpt].Waste {
		t.Errorf("composite %v not clearly below pure %v at 1M",
			last[AbftPeriodicCkpt].Waste, last[PurePeriodicCkpt].Waste)
	}
}

func TestSweepEpochAccounting(t *testing.T) {
	w := Fig8Scenario(ScaleConstant) // per-epoch mode (AggregateEpochs false)
	pts := w.Sweep([]float64{10_000}, Options{})

	// The composite pays per-epoch forced checkpoints: its totals are the
	// single-epoch evaluation scaled by the epoch count.
	comp := pts[0].Results[AbftPeriodicCkpt]
	single := Evaluate(AbftPeriodicCkpt, w.ParamsAt(10_000), Options{})
	if !almostEqual(comp.TFinal, 1000*single.TFinal, 1e-9) {
		t.Errorf("composite TFinal = %v, want %v", comp.TFinal, 1000*single.TFinal)
	}
	if !almostEqual(comp.ExpectedFaults, 1000*single.ExpectedFaults, 1e-9) {
		t.Errorf("composite faults = %v, want %v", comp.ExpectedFaults, 1000*single.ExpectedFaults)
	}
	if !almostEqual(comp.Waste, single.Waste, 1e-12) {
		t.Errorf("composite waste should equal the per-epoch waste")
	}

	// The periodic protocols are epoch-oblivious: evaluated on the
	// aggregated application, not per epoch.
	pure := pts[0].Results[PurePeriodicCkpt]
	agg := Evaluate(PurePeriodicCkpt, w.AggregatedParamsAt(10_000), Options{})
	if !almostEqual(pure.TFinal, agg.TFinal, 1e-9) {
		t.Errorf("pure TFinal = %v, want aggregated %v", pure.TFinal, agg.TFinal)
	}

	// With AggregateEpochs set, the composite amortizes its forced
	// checkpoints over the whole run and its waste drops.
	w.AggregateEpochs = true
	aggPts := w.Sweep([]float64{10_000}, Options{})
	if !(aggPts[0].Results[AbftPeriodicCkpt].Waste < comp.Waste) {
		t.Errorf("aggregated composite waste %v should be below per-epoch %v",
			aggPts[0].Results[AbftPeriodicCkpt].Waste, comp.Waste)
	}
}

func TestDefaultNodeCounts(t *testing.T) {
	counts := DefaultNodeCounts()
	if counts[0] != 1000 || counts[len(counts)-1] != 1_000_000 {
		t.Errorf("range = [%v, %v]", counts[0], counts[len(counts)-1])
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Errorf("node counts not increasing at %d: %v, %v", i, counts[i-1], counts[i])
		}
	}
	if len(counts) < 20 {
		t.Errorf("too few sweep points: %d", len(counts))
	}
}

// Expected fault counts at scale: the composite should see no more faults
// than the periodic protocols (shorter total execution).
func TestFig8FaultOrdering(t *testing.T) {
	w := Fig8Scenario(ScaleConstant)
	w.AggregateEpochs = true
	pts := w.Sweep([]float64{1_000_000}, Options{})
	r := pts[0].Results
	if r[AbftPeriodicCkpt].ExpectedFaults > r[PurePeriodicCkpt].ExpectedFaults {
		t.Errorf("composite faults %v should not exceed pure faults %v",
			r[AbftPeriodicCkpt].ExpectedFaults, r[PurePeriodicCkpt].ExpectedFaults)
	}
}
