package sim

import (
	"fmt"
	"math"

	"abftckpt/internal/dist"
	"abftckpt/internal/rng"
)

// TraceArena is a materialized failure process: for every repetition of a
// campaign it holds the prefix-summed failure arrival times of the substream
// rng.At1(Seed, rep), generated once and replayed by any number of
// campaigns (Options.Arena) that share the process (same distribution,
// MTBF, seed and repetition count). The arrivals live in one flat []float64
// arena indexed by per-replica offsets, so a cohort of simulation cells — a
// heatmap scanning several protocols or period variants over one platform
// failure process — pays the RNG and math.Log cost of the streams once
// instead of once per cell.
//
// The arena stores a bounded prefix of each stream: every replica is
// generated through the first arrival beyond the build horizon. A replay
// that outruns its prefix (a run slower than the horizon allowed for)
// continues drawing live from the replica's saved generator state, so
// results never depend on the horizon; it is purely a memory/speed knob.
type TraceArena struct {
	seed    uint64
	mean    float64 // distribution mean == the MTBF (all laws are normalized)
	horizon float64

	arrivals []float64
	offsets  []int       // len reps+1; replica rep owns arrivals[offsets[rep]:offsets[rep+1]]
	states   [][4]uint64 // per-replica rng state after its generated prefix
}

// Reps returns the number of replica streams the arena holds.
func (tr *TraceArena) Reps() int { return len(tr.offsets) - 1 }

// Len returns the total number of materialized arrivals.
func (tr *TraceArena) Len() int { return len(tr.arrivals) }

// Bytes returns the approximate memory footprint of the arena.
func (tr *TraceArena) Bytes() int64 {
	return int64(len(tr.arrivals))*8 + int64(len(tr.offsets))*8 + int64(len(tr.states))*32
}

// Horizon returns the build horizon: every replica's prefix covers at least
// one arrival beyond it.
func (tr *TraceArena) Horizon() float64 { return tr.horizon }

// Equal reports whether two arenas materialize the same process identically:
// same seed, mean, horizon, per-replica offsets, every arrival bit-equal and
// every saved generator state equal. Process-key equality must imply arena
// equality (pinned by the property tests of internal/scenario).
func (tr *TraceArena) Equal(other *TraceArena) bool {
	if tr.seed != other.seed || tr.mean != other.mean || tr.horizon != other.horizon ||
		len(tr.arrivals) != len(other.arrivals) || len(tr.offsets) != len(other.offsets) {
		return false
	}
	for i := range tr.offsets {
		if tr.offsets[i] != other.offsets[i] {
			return false
		}
	}
	for i := range tr.arrivals {
		if tr.arrivals[i] != other.arrivals[i] {
			return false
		}
	}
	for i := range tr.states {
		if tr.states[i] != other.states[i] {
			return false
		}
	}
	return true
}

// EstimateArenaArrivals predicts how many arrivals BuildTraceArena will
// materialize, so schedulers can enforce a memory budget before building:
// each replica needs about horizon/mean arrivals to cross the horizon, plus
// slack for the first arrival past it and generation-batch overshoot.
func EstimateArenaArrivals(mean, horizon float64, reps int) int64 {
	if mean <= 0 {
		return math.MaxInt64
	}
	perRep := horizon/mean + 4
	if perRep > math.MaxInt64/8/float64(reps+1) {
		return math.MaxInt64
	}
	return int64(perRep) * int64(reps)
}

// BuildTraceArena materializes the failure process: for each rep in
// [0, reps), the prefix sums of inter-arrival draws from d on the substream
// rng.At1(seed, rep), generated until the first arrival beyond horizon. The
// draws, their order and their float accumulation are exactly those the
// simulator performs (exponential streams go through rng.Source.ExpFillFrom,
// the other laws through Distribution.Sample), so replaying the arena is
// bit-identical to generating on the fly.
func BuildTraceArena(d dist.Distribution, seed uint64, reps int, horizon float64) *TraceArena {
	if reps <= 0 {
		panic("sim: BuildTraceArena needs reps > 0")
	}
	if horizon < 0 || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		panic(fmt.Sprintf("sim: BuildTraceArena horizon %v must be finite and non-negative", horizon))
	}
	tr := &TraceArena{
		seed:    seed,
		mean:    d.Mean(),
		horizon: horizon,
		offsets: make([]int, reps+1),
		states:  make([][4]uint64, reps),
	}
	if !(tr.mean > 0) {
		panic(fmt.Sprintf("sim: BuildTraceArena needs a distribution with positive mean, got %v", tr.mean))
	}
	perRep := int(horizon/tr.mean) + 2
	tr.arrivals = make([]float64, 0, perRep*reps)

	negMean := 0.0
	e, isExp := d.(dist.Exponential)
	if isExp {
		negMean = -e.Mean()
	}
	var src rng.Source
	var buf [64]float64
	for rep := 0; rep < reps; rep++ {
		src.Reseed(rng.At1(seed, uint64(rep)))
		base := 0.0
		if isExp {
			// Batched fills keep the xoshiro state in registers and pipeline
			// the logarithms; the fill size tracks the expected remaining
			// arrivals so the overshoot past the horizon stays small.
			for {
				n := perRep - (len(tr.arrivals) - tr.offsets[rep]) + 2
				if n < 8 {
					n = 8
				}
				if n > len(buf) {
					n = len(buf)
				}
				src.ExpFillFrom(buf[:n], negMean, base)
				tr.arrivals = append(tr.arrivals, buf[:n]...)
				base = buf[n-1]
				if base > horizon {
					break
				}
			}
		} else {
			for base <= horizon {
				base += d.Sample(&src)
				tr.arrivals = append(tr.arrivals, base)
			}
		}
		tr.offsets[rep+1] = len(tr.arrivals)
		tr.states[rep] = src.State()
	}
	return tr
}
