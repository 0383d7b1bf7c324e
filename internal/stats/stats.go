// Package stats provides the summary statistics used to aggregate simulator
// output: online mean/variance accumulation (Welford), confidence intervals,
// quantiles and fixed-width histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes running mean and variance using Welford's online
// algorithm, which is numerically stable for the long accumulation runs the
// simulator performs. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// AddAll incorporates a batch of observations.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (NaN when empty).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the unbiased sample variance (NaN when n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation (NaN when n < 2).
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean (NaN when n < 2).
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval on the mean.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Min returns the smallest observation (NaN when empty).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation (NaN when empty).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// Merge folds another accumulator into a (parallel reduction), using the
// Chan et al. pairwise combination formulas.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	a.mean += delta * float64(b.n) / float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = n
}

// Summary is a value snapshot of an Accumulator, convenient for CSV export.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
	Min    float64
	Max    float64
}

// Summarize captures the accumulator state.
func (a *Accumulator) Summarize() Summary {
	return Summary{N: a.n, Mean: a.Mean(), StdDev: a.StdDev(), CI95: a.CI95(), Min: a.Min(), Max: a.Max()}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g ±%.2g (sd=%.3g, min=%.6g, max=%.6g)",
		s.N, s.Mean, s.CI95, s.StdDev, s.Min, s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// xs is not modified. It returns NaN on empty input or invalid q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// Quantiles returns multiple quantiles with a single sort.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, q := range qs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			out[i] = math.NaN()
			continue
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-width histogram over [Lo, Hi) with overflow and
// underflow counters.
type Histogram struct {
	Lo, Hi    float64
	Counts    []int
	Underflow int
	Overflow  int
	total     int
}

// NewHistogram creates a histogram with nbins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || !(hi > lo) {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.Counts) { // guard against FP rounding at the edge
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations recorded, including out-of-range.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Mode returns the center of the most populated bin (NaN when empty).
func (h *Histogram) Mode() float64 {
	best, bestCount := -1, -1
	for i, c := range h.Counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	if bestCount <= 0 {
		return math.NaN()
	}
	return h.BinCenter(best)
}

// KolmogorovSmirnov returns the one-sample Kolmogorov-Smirnov statistic
// D_n = sup_x |F_n(x) - F(x)| of samples against the reference CDF. Under the
// null hypothesis that the samples are drawn from F, D_n exceeds c/sqrt(n)
// with probability ~2*exp(-2*c^2), so tests can reject at e.g. c = 2 for a
// ~0.07% false-positive rate. xs is not modified; NaN on empty input.
func KolmogorovSmirnov(xs []float64, cdf func(float64) float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	d := 0.0
	for i, x := range sorted {
		f := cdf(x)
		// The empirical CDF jumps from i/n to (i+1)/n at x; the supremum of
		// the deviation is attained at one side of a jump.
		if lo := math.Abs(f - float64(i)/n); lo > d {
			d = lo
		}
		if hi := math.Abs(f - float64(i+1)/n); hi > d {
			d = hi
		}
	}
	return d
}

// Mean computes the exact mean of a slice (convenience for tests/tools).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
