package sim

import (
	"fmt"
	"math"
	"slices"

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
//
// Replicas are materialized in repetition order, on demand: an arena has a
// capacity (Cap) fixed at construction and holds the streams of replicas
// [0, Reps()). The replica driver grows it before each batch it runs, so an
// adaptive campaign that stops early never pays for the replicas it skips.
// Every replica's stream is generated from its own substream alone, so the
// arena's contents do not depend on how it was grown. Growth writes the
// arena: a partly grown arena must not be replayed by concurrent campaigns
// (a fully grown one, as BuildTraceArena returns, is read-only).
type TraceArena struct {
	distrib  dist.Distribution
	seed     uint64
	mean     float64 // distribution mean == the MTBF (all laws are normalized)
	horizon  float64
	perRep   int // expected arrivals per replica: sizes storage and exponential fills
	capacity int

	arrivals []float64
	offsets  []int       // len Reps()+1; replica rep owns arrivals[offsets[rep]:offsets[rep+1]]
	states   [][4]uint64 // per-replica rng state after its generated prefix
}

// Reps returns the number of replica streams the arena has materialized.
func (tr *TraceArena) Reps() int { return len(tr.offsets) - 1 }

// Cap returns the number of replica streams the arena can hold: the
// repetition count of the process it was built for.
func (tr *TraceArena) Cap() int { return tr.capacity }

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
// same seed, mean, horizon, capacity, per-replica offsets, every arrival
// bit-equal and every saved generator state equal. Process-key equality must
// imply arena equality (pinned by the property tests of internal/scenario).
func (tr *TraceArena) Equal(other *TraceArena) bool {
	return tr.seed == other.seed && tr.mean == other.mean && tr.horizon == other.horizon &&
		tr.capacity == other.capacity &&
		slices.Equal(tr.offsets, other.offsets) &&
		slices.Equal(tr.arrivals, other.arrivals) &&
		slices.Equal(tr.states, other.states)
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

// NewTraceArena returns an empty arena for the failure process of law d on
// seed, with room for capacity replica streams each generated through the
// first arrival beyond horizon. Grow materializes the streams.
func NewTraceArena(d dist.Distribution, seed uint64, capacity int, horizon float64) *TraceArena {
	if capacity <= 0 {
		panic("sim: a trace arena needs reps > 0")
	}
	if horizon < 0 || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		panic(fmt.Sprintf("sim: trace arena horizon %v must be finite and non-negative", horizon))
	}
	mean := d.Mean()
	if !(mean > 0) {
		panic(fmt.Sprintf("sim: a trace arena needs a distribution with positive mean, got %v", mean))
	}
	return &TraceArena{
		distrib:  d,
		seed:     seed,
		mean:     mean,
		horizon:  horizon,
		perRep:   int(horizon/mean) + 2,
		capacity: capacity,
		offsets:  make([]int, 1, capacity+1),
		states:   make([][4]uint64, 0, capacity),
	}
}

// BuildTraceArena materializes the failure process: for each rep in
// [0, reps), the prefix sums of inter-arrival draws from d on the substream
// rng.At1(seed, rep), generated until the first arrival beyond horizon. The
// draws, their order and their float accumulation are exactly those the
// simulator performs (exponential streams go through rng.Source.ExpFillFrom,
// the other laws through Distribution.Sample), so replaying the arena is
// bit-identical to generating on the fly.
func BuildTraceArena(d dist.Distribution, seed uint64, reps int, horizon float64) *TraceArena {
	tr := NewTraceArena(d, seed, reps, horizon)
	tr.Grow(reps)
	return tr
}

// Grow materializes replica streams until the arena holds n of them; it
// does nothing when the arena already holds n or more. n must not exceed
// Cap.
func (tr *TraceArena) Grow(n int) {
	if n > tr.capacity {
		panic(fmt.Sprintf("sim: trace arena of capacity %d cannot grow to %d replicas", tr.capacity, n))
	}
	first := tr.Reps()
	if n <= first {
		return
	}
	tr.arrivals = slices.Grow(tr.arrivals, tr.perRep*(n-first))

	negMean := 0.0
	e, isExp := tr.distrib.(dist.Exponential)
	if isExp {
		negMean = -e.Mean()
	}
	var src rng.Source
	var buf [64]float64
	for rep := first; rep < n; rep++ {
		src.Reseed(rng.At1(tr.seed, uint64(rep)))
		start := len(tr.arrivals)
		base := 0.0
		if isExp {
			// Batched fills keep the xoshiro state in registers and pipeline
			// the logarithms; the fill size tracks the expected remaining
			// arrivals so the overshoot past the horizon stays small.
			for {
				k := tr.perRep - (len(tr.arrivals) - start) + 2
				if k < 8 {
					k = 8
				}
				if k > len(buf) {
					k = len(buf)
				}
				src.ExpFillFrom(buf[:k], negMean, base)
				tr.arrivals = append(tr.arrivals, buf[:k]...)
				base = buf[k-1]
				if base > tr.horizon {
					break
				}
			}
		} else {
			for base <= tr.horizon {
				base += tr.distrib.Sample(&src)
				tr.arrivals = append(tr.arrivals, base)
			}
		}
		tr.offsets = append(tr.offsets, len(tr.arrivals))
		tr.states = append(tr.states, src.State())
	}
}
