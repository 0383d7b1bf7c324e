package dist

import (
	"math"
	"strings"
	"testing"

	"abftckpt/internal/rng"
	"abftckpt/internal/stats"
)

// empiricalBase builds a reproducible recorded-sample set for the Empirical
// distribution: 1000 exponential inter-arrivals at MTBF 100.
func empiricalBase() []float64 {
	src := rng.New(12345)
	e := NewExponential(100)
	out := make([]float64, 1000)
	for i := range out {
		out[i] = e.Sample(src)
	}
	return out
}

// catalogue returns every distribution family at MTBF 100, across several
// shapes, keyed by a seed offset so each gets an independent stream.
func catalogue() []Distribution {
	return []Distribution{
		NewExponential(100),
		WeibullWithMTBF(0.5, 100),
		WeibullWithMTBF(0.7, 100),
		WeibullWithMTBF(1.0, 100),
		WeibullWithMTBF(2.0, 100),
		LogNormalWithMTBF(0.5, 100),
		LogNormalWithMTBF(1.0, 100),
		LogNormalWithMTBF(1.5, 100),
		GammaWithMTBF(0.5, 100),
		GammaWithMTBF(1.0, 100),
		GammaWithMTBF(3.0, 100),
		CascadeWithMTBF(0.05, 100),
		CascadeWithMTBF(0.3, 100),
		NewEmpirical(empiricalBase()),
	}
}

// The empirical mean of 100k samples must agree with the analytic Mean()
// within 6 standard errors (a ~2e-9 false-positive rate if the sampler is
// correct; the seeds are fixed, so in practice this is deterministic).
func TestSampleMeanMatchesAnalyticMean(t *testing.T) {
	for i, d := range catalogue() {
		src := rng.New(rng.At(1, uint64(i)))
		var acc stats.Accumulator
		for n := 0; n < 100_000; n++ {
			x := d.Sample(src)
			if !(x > 0) || math.IsInf(x, 1) || math.IsNaN(x) {
				t.Fatalf("%v: sample %v not positive finite", d, x)
			}
			acc.Add(x)
		}
		if diff := math.Abs(acc.Mean() - d.Mean()); diff > 6*acc.StdErr() {
			t.Errorf("%v: sample mean %v vs analytic %v (|diff| %v > 6*stderr %v)",
				d, acc.Mean(), d.Mean(), diff, 6*acc.StdErr())
		}
	}
}

// CDF must be 0 at and below zero, non-decreasing, bounded by [0,1], and
// approach 1 far in the tail.
func TestCDFMonotoneAndBounded(t *testing.T) {
	for _, d := range catalogue() {
		if got := d.CDF(0); got != 0 {
			t.Errorf("%v: CDF(0) = %v, want 0", d, got)
		}
		if got := d.CDF(-5); got != 0 {
			t.Errorf("%v: CDF(-5) = %v, want 0", d, got)
		}
		prev := 0.0
		for x := 0.5; x < 100*d.Mean(); x *= 1.2 {
			f := d.CDF(x)
			if f < 0 || f > 1 {
				t.Fatalf("%v: CDF(%v) = %v outside [0,1]", d, x, f)
			}
			if f < prev {
				t.Fatalf("%v: CDF decreasing at %v: %v < %v", d, x, f, prev)
			}
			prev = f
		}
		// 100x the mean is deep in the tail for every catalogued shape
		// (the heaviest, LogNormal sigma=1.5, still has >97% mass there).
		if f := d.CDF(100 * d.Mean()); f < 0.97 {
			t.Errorf("%v: CDF(100*mean) = %v, want near 1", d, f)
		}
	}
}

// Kolmogorov-Smirnov check of the sampler against the analytic CDF: with
// n = 20k samples, D_n > 2.2/sqrt(n) has probability ~6e-5 under the null,
// and the fixed seeds make the outcome deterministic.
func TestSamplesMatchCDFKolmogorovSmirnov(t *testing.T) {
	const n = 20_000
	for i, d := range catalogue() {
		src := rng.New(rng.At(2, uint64(i)))
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = d.Sample(src)
		}
		dn := stats.KolmogorovSmirnov(xs, d.CDF)
		if limit := 2.2 / math.Sqrt(n); dn > limit {
			t.Errorf("%v: KS statistic %v exceeds %v", d, dn, limit)
		}
	}
}

// The *WithMTBF constructors are normalized exactly: Mean() returns the
// requested MTBF bit-for-bit, for every shape.
func TestMTBFNormalizationExact(t *testing.T) {
	shapes := []float64{0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 4.0}
	for _, mtbf := range []float64{1, 100, 3600, 604800} {
		for _, k := range shapes {
			if got := WeibullWithMTBF(k, mtbf).Mean(); got != mtbf {
				t.Errorf("Weibull(k=%g): Mean() = %v, want exactly %v", k, got, mtbf)
			}
			if got := GammaWithMTBF(k, mtbf).Mean(); got != mtbf {
				t.Errorf("Gamma(k=%g): Mean() = %v, want exactly %v", k, got, mtbf)
			}
			if got := LogNormalWithMTBF(k, mtbf).Mean(); got != mtbf {
				t.Errorf("LogNormal(sigma=%g): Mean() = %v, want exactly %v", k, got, mtbf)
			}
		}
		for _, prob := range []float64{0.01, 0.1, 0.5, 0.9} {
			if got := CascadeWithMTBF(prob, mtbf).Mean(); got != mtbf {
				t.Errorf("Cascade(prob=%g): Mean() = %v, want exactly %v", prob, got, mtbf)
			}
		}
		if got := NewExponential(mtbf).Mean(); got != mtbf {
			t.Errorf("Exponential: Mean() = %v, want exactly %v", got, mtbf)
		}
	}
}

// The normalization must also hold analytically, not just as a stored field:
// recomputing the mean from the solved parameters lands on the MTBF.
func TestMTBFNormalizationAnalytic(t *testing.T) {
	const mtbf = 250.0
	for _, k := range []float64{0.5, 0.7, 1.3, 2.0} {
		w := WeibullWithMTBF(k, mtbf)
		if got := w.scale * math.Gamma(1+1/k); math.Abs(got-mtbf) > 1e-9*mtbf {
			t.Errorf("Weibull(k=%g): scale*Gamma(1+1/k) = %v, want %v", k, got, mtbf)
		}
		g := GammaWithMTBF(k, mtbf)
		if got := g.shape * g.scale; math.Abs(got-mtbf) > 1e-9*mtbf {
			t.Errorf("Gamma(k=%g): shape*scale = %v, want %v", k, got, mtbf)
		}
	}
	for _, sigma := range []float64{0.5, 1.0, 1.5} {
		l := LogNormalWithMTBF(sigma, mtbf)
		if got := math.Exp(l.mu + sigma*sigma/2); math.Abs(got-mtbf) > 1e-9*mtbf {
			t.Errorf("LogNormal(sigma=%g): exp(mu+sigma^2/2) = %v, want %v", sigma, got, mtbf)
		}
	}
}

// Weibull shape 1 and Gamma shape 1 both degenerate to the exponential law;
// their CDFs must agree with it everywhere.
func TestShapeOneDegeneratesToExponential(t *testing.T) {
	e := NewExponential(100)
	w := WeibullWithMTBF(1, 100)
	g := GammaWithMTBF(1, 100)
	for x := 1.0; x < 2000; x *= 1.7 {
		want := e.CDF(x)
		if got := w.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("Weibull(1).CDF(%v) = %v, exponential %v", x, got, want)
		}
		if got := g.CDF(x); math.Abs(got-want) > 1e-10 {
			t.Errorf("Gamma(1).CDF(%v) = %v, exponential %v", x, got, want)
		}
	}
}

// regularizedGammaP against closed forms: P(1, x) = 1 - e^-x and
// P(1/2, x) = erf(sqrt(x)).
func TestRegularizedGammaPClosedForms(t *testing.T) {
	for x := 0.01; x < 50; x *= 1.5 {
		if got, want := regularizedGammaP(1, x), -math.Expm1(-x); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(1, %v) = %v, want %v", x, got, want)
		}
		if got, want := regularizedGammaP(0.5, x), math.Erf(math.Sqrt(x)); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(0.5, %v) = %v, want %v", x, got, want)
		}
	}
	if got := regularizedGammaP(3, 0); got != 0 {
		t.Errorf("P(3, 0) = %v, want 0", got)
	}
	if got := regularizedGammaP(3, 1e4); math.Abs(got-1) > 1e-12 {
		t.Errorf("P(3, 1e4) = %v, want 1", got)
	}
}

// Empirical replays exactly the recorded values and nothing else.
func TestEmpiricalReplaysRecordedSamples(t *testing.T) {
	base := []float64{3, 1, 4, 1.5, 9}
	e := NewEmpirical(base)
	if e.N() != len(base) {
		t.Fatalf("N = %d", e.N())
	}
	wantMean := (3 + 1 + 4 + 1.5 + 9) / 5.0
	if math.Abs(e.Mean()-wantMean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", e.Mean(), wantMean)
	}
	allowed := map[float64]bool{3: true, 1: true, 4: true, 1.5: true, 9: true}
	src := rng.New(7)
	seen := map[float64]bool{}
	for i := 0; i < 1000; i++ {
		x := e.Sample(src)
		if !allowed[x] {
			t.Fatalf("sample %v not among recorded values", x)
		}
		seen[x] = true
	}
	if len(seen) != len(allowed) {
		t.Errorf("only %d of %d recorded values drawn in 1000 samples", len(seen), len(allowed))
	}
	// ECDF steps at the recorded points, counting ties.
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.2}, {1.4, 0.2}, {1.5, 0.4}, {3, 0.6}, {8, 0.8}, {9, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.CDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// The constructor input is copied: mutating the caller's slice afterwards
// must not corrupt the distribution.
func TestEmpiricalCopiesInput(t *testing.T) {
	base := []float64{1, 2, 3}
	e := NewEmpirical(base)
	base[0] = 1e9
	if e.Mean() != 2 {
		t.Errorf("mean changed to %v after caller mutation", e.Mean())
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewExponential(0) },
		func() { NewExponential(-1) },
		func() { NewExponential(math.NaN()) },
		func() { NewExponential(math.Inf(1)) },
		func() { NewWeibull(0, 1) },
		func() { NewWeibull(1, 0) },
		func() { WeibullWithMTBF(1, -3) },
		func() { NewLogNormal(math.NaN(), 1) },
		func() { NewLogNormal(0, 0) },
		func() { LogNormalWithMTBF(1, 0) },
		func() { NewGamma(-1, 1) },
		func() { NewGamma(1, -1) },
		func() { GammaWithMTBF(2, 0) },
		func() { NewCascade(0, 1, 100) },
		func() { NewCascade(1, 1, 100) },
		func() { NewCascade(0.5, 0, 100) },
		func() { NewCascade(0.5, 1, -100) },
		func() { CascadeWithMTBF(0.5, 0) },
		func() { CascadeWithMTBF(-0.1, 100) },
		func() { NewEmpirical(nil) },
		func() { NewEmpirical([]float64{1, -2}) },
		func() { NewEmpirical([]float64{1, math.NaN()}) },
		func() { NewEmpirical([]float64{math.Inf(1)}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestStringNames(t *testing.T) {
	wants := []struct {
		d    Distribution
		frag string
	}{
		{NewExponential(100), "Exponential"},
		{WeibullWithMTBF(0.7, 100), "Weibull"},
		{LogNormalWithMTBF(1, 100), "LogNormal"},
		{GammaWithMTBF(2, 100), "Gamma"},
		{CascadeWithMTBF(0.1, 100), "Cascade"},
		{NewEmpirical([]float64{1, 2}), "Empirical"},
	}
	seen := map[string]bool{}
	for _, w := range wants {
		s := w.d.String()
		if !strings.Contains(s, w.frag) {
			t.Errorf("String() = %q, want fragment %q", s, w.frag)
		}
		if seen[s] {
			t.Errorf("duplicate String() %q", s)
		}
		seen[s] = true
	}
}

// Sampling is deterministic per source seed: the same stream yields the same
// variates, a prerequisite for the simulator's replica addressing.
func TestSamplingDeterminism(t *testing.T) {
	for i, d := range catalogue() {
		a, b := rng.New(rng.At(5, uint64(i))), rng.New(rng.At(5, uint64(i)))
		for n := 0; n < 100; n++ {
			if x, y := d.Sample(a), d.Sample(b); x != y {
				t.Fatalf("%v: draw %d diverged: %v vs %v", d, n, x, y)
			}
		}
	}
}
