package stats

import (
	"fmt"
	"math"
)

// This file is the adaptive-precision estimator core: anytime-valid
// confidence intervals for a sequentially monitored mean (with an optional
// control variate), and paired-difference intervals over matched samples.
// The simulator's sequential stopping (internal/sim.Simulate with a
// Precision block) and the scenario layer's protocol-difference tables are
// both built on it, and its coverage is pinned empirically by the meta-test
// harness in coverage.go.

// InvNorm returns the standard normal quantile Phi^{-1}(p) for p in (0, 1),
// using Acklam's rational approximation (relative error < 1.2e-9 across the
// full domain). It returns -Inf at p = 0 and +Inf at p = 1, NaN outside
// [0, 1].
func InvNorm(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	// Coefficients of Acklam's approximation.
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
			1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
			6.680131188771972e+01, -1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
			-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
			3.754408661907416e+00}
	)
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	return x
}

// tQuantileApprox approximates the Student-t quantile with df degrees of
// freedom from the normal quantile z via the first Cornish-Fisher term,
// t ~ z + (z^3 + z) / (4 df). The approximation errs slightly wide for
// df >= 8, which is the conservative direction for confidence intervals.
func tQuantileApprox(z float64, df int) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	return z + (z*z*z+z)/(4*float64(df))
}

// Interval is a two-sided confidence interval on a mean.
type Interval struct {
	// N is the number of observations behind the interval.
	N int
	// Mean is the point estimate.
	Mean float64
	// Half is the half-width; the interval is [Mean-Half, Mean+Half].
	Half float64
}

// Lo returns the lower endpoint.
func (iv Interval) Lo() float64 { return iv.Mean - iv.Half }

// Hi returns the upper endpoint.
func (iv Interval) Hi() float64 { return iv.Mean + iv.Half }

// Covers reports whether the interval contains v.
func (iv Interval) Covers(v float64) bool { return iv.Lo() <= v && v <= iv.Hi() }

func (iv Interval) String() string {
	return fmt.Sprintf("%.6g ±%.3g (n=%d)", iv.Mean, iv.Half, iv.N)
}

// SequentialOpts configures a Sequential estimator.
type SequentialOpts struct {
	// Alpha is the total error budget spread across all looks (default
	// 0.05, i.e. 95% confidence for the whole sequential procedure).
	Alpha float64
	// RelTarget stops the procedure once the half-width falls to
	// RelTarget * |mean|; 0 disables the relative criterion.
	RelTarget float64
	// AbsTarget stops the procedure once the half-width falls to AbsTarget;
	// 0 disables the absolute criterion.
	AbsTarget float64
	// UseControl enables the control-variate adjustment: observations are
	// added with AddControlled(y, x) and the reported mean is the
	// regression-adjusted y - beta*(x - ControlMean), whose variance shrinks
	// by the squared y/x correlation.
	UseControl bool
	// ControlMean is the exactly known expectation of the control variate.
	ControlMean float64
	// MinN is the smallest sample size allowed to stop (default 16): the
	// variance estimate behind the interval needs a few observations before
	// it can be trusted.
	MinN int
}

// DefaultSequentialMinN is the SequentialOpts.MinN default.
const DefaultSequentialMinN = 16

// Sequential is an anytime-valid mean estimator: observations stream in,
// and at every Look it reports a confidence interval that remains valid
// under optional stopping. Validity comes from spending the error budget
// over looks: look k uses alpha_k = Alpha / (k (k+1)), so the total spend
// telescopes to Alpha however many looks happen, and by the union bound the
// probability that ANY look's interval misses the truth is at most Alpha —
// in particular the interval at the (data-dependent) stopping look is an
// honest (1-Alpha) interval. With geometrically growing batches (the
// simulator doubles them) the critical value at sample size n grows like
// sqrt(2 ln ln n), the law-of-iterated-logarithm rate, so repeated looks
// cost only a slowly growing factor over a fixed-n interval.
//
// The optional control variate X must have exactly known mean ControlMean;
// the reported mean is then the regression-adjusted estimator
// meanY - beta*(meanX - ControlMean) with beta fitted on the same sample,
// and the interval uses the residual variance, which is smaller than the
// plain variance by the factor (1 - corr(X,Y)^2).
type Sequential struct {
	opts SequentialOpts

	n            int
	meanY, m2y   float64
	meanX, m2x   float64
	cxy          float64
	looks        int
	lastInterval Interval
}

// NewSequential creates a Sequential estimator.
func NewSequential(opts SequentialOpts) *Sequential {
	if opts.Alpha <= 0 || opts.Alpha >= 1 {
		opts.Alpha = 0.05
	}
	if opts.MinN <= 0 {
		opts.MinN = DefaultSequentialMinN
	}
	return &Sequential{opts: opts}
}

// Add incorporates one observation (no control variate).
func (s *Sequential) Add(y float64) { s.AddControlled(y, 0) }

// AddControlled incorporates one observation with its control variate.
func (s *Sequential) AddControlled(y, x float64) {
	s.n++
	n := float64(s.n)
	dx := x - s.meanX
	s.meanX += dx / n
	dy := y - s.meanY
	s.meanY += dy / n
	s.m2y += dy * (y - s.meanY)
	s.m2x += dx * (x - s.meanX)
	s.cxy += dx * (y - s.meanY)
}

// N returns the number of observations so far.
func (s *Sequential) N() int { return s.n }

// Looks returns the number of looks performed so far.
func (s *Sequential) Looks() int { return s.looks }

// controlled reports whether the control-variate adjustment is active: it
// needs the option on, at least three observations and a non-degenerate X.
func (s *Sequential) controlled() bool {
	return s.opts.UseControl && s.n >= 3 && s.m2x > 0
}

// Beta returns the fitted control-variate coefficient (0 when the
// adjustment is inactive).
func (s *Sequential) Beta() float64 {
	if !s.controlled() {
		return 0
	}
	return s.cxy / s.m2x
}

// VarianceRatio returns the estimated variance of the adjusted estimator
// relative to the plain sample mean, i.e. residualVar/plainVar in (0, 1]
// when the control variate helps (1 when the adjustment is inactive or the
// observations are degenerate).
func (s *Sequential) VarianceRatio() float64 {
	if !s.controlled() || s.n < 4 || s.m2y <= 0 {
		return 1
	}
	rss := s.m2y - s.cxy*s.cxy/s.m2x
	if rss < 0 {
		rss = 0
	}
	ratio := (rss / float64(s.n-2)) / (s.m2y / float64(s.n-1))
	if ratio > 1 {
		ratio = 1
	}
	return ratio
}

// interval builds the confidence interval at critical value z (a standard
// normal quantile; a Student-t correction for the estimated variance is
// applied internally).
func (s *Sequential) interval(z float64) Interval {
	iv := Interval{N: s.n, Mean: s.meanY, Half: math.Inf(1)}
	if s.n < 2 {
		return iv
	}
	var variance float64
	df := s.n - 1
	if s.controlled() {
		beta := s.cxy / s.m2x
		iv.Mean = s.meanY - beta*(s.meanX-s.opts.ControlMean)
		rss := s.m2y - s.cxy*s.cxy/s.m2x
		if rss < 0 {
			rss = 0
		}
		df = s.n - 2
		variance = rss / float64(df)
	} else {
		variance = s.m2y / float64(df)
	}
	iv.Half = tQuantileApprox(z, df) * math.Sqrt(variance/float64(s.n))
	return iv
}

// lookZ returns the normal critical value of look k (1-based) under the
// alpha-spending schedule alpha_k = alpha / (k (k+1)).
func lookZ(alpha float64, k int) float64 {
	spent := alpha / (float64(k) * float64(k+1))
	return InvNorm(1 - spent/2)
}

// Look performs one interim analysis: it spends the next slice of the error
// budget, reports the current confidence interval, and reports whether the
// precision target is met (always false before MinN observations, or when
// no target is configured). The caller must report the interval of the look
// at which it stops — that is what the alpha-spending schedule makes valid.
func (s *Sequential) Look() (Interval, bool) {
	s.looks++
	iv := s.interval(lookZ(s.opts.Alpha, s.looks))
	s.lastInterval = iv
	if s.n < s.opts.MinN || math.IsInf(iv.Half, 0) {
		return iv, false
	}
	stop := false
	if s.opts.AbsTarget > 0 && iv.Half <= s.opts.AbsTarget {
		stop = true
	}
	if s.opts.RelTarget > 0 && iv.Half <= s.opts.RelTarget*math.Abs(iv.Mean) {
		stop = true
	}
	return iv, stop
}

// LastInterval returns the interval of the most recent Look (zero value
// before the first look).
func (s *Sequential) LastInterval() Interval { return s.lastInterval }

// PairedDifference returns the (1-alpha) confidence interval on
// E[a_i - b_i] over the first n = min(len(a), len(b)) pairs. Matching by
// index is the caller's contract: replica i of both runs must have observed
// the same randomness (the share_traces pairing of internal/scenario), which
// cancels the common trace noise out of the difference. Adaptive runs may
// have stopped at different replica counts; the shorter prefix pairs.
func PairedDifference(a, b []float64, alpha float64) (Interval, error) {
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < 2 {
		return Interval{}, fmt.Errorf("stats: paired difference needs at least 2 pairs, got %d", n)
	}
	var acc Accumulator
	for i := 0; i < n; i++ {
		acc.Add(a[i] - b[i])
	}
	z := InvNorm(1 - alpha/2)
	return Interval{
		N:    n,
		Mean: acc.Mean(),
		Half: tQuantileApprox(z, n-1) * acc.StdErr(),
	}, nil
}
