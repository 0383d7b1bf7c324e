package sim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"abftckpt/internal/dist"
	"abftckpt/internal/rng"
	"abftckpt/internal/stats"
)

// This file is the replica engine shared by every failure family: one
// worker-owned runner that holds the failure clock, and one driver that runs
// a campaign's replicas across a worker pool and reduces them in repetition
// order. A family (periodic, silent, two-level) supplies only its per-replica
// step over the clock.

// family is one failure family's per-replica step. A family value is built
// once per campaign and shared read-only by every worker; step runs replica
// rep on r, whose clock already points at the replica's failure stream.
type family interface {
	step(r *replicaRunner, rep int) RunResult
}

// clock describes a campaign's failure clock: the law and seed of the
// per-replica arrival streams, an optional arena replaying them, the safety
// horizon and the control-variate horizon (0 outside adaptive runs).
type clock struct {
	seed      uint64
	distrib   dist.Distribution
	tr        *TraceArena
	horizon   float64
	cvHorizon float64
}

// replicaRunner is the allocation-free replica engine. Each worker owns one
// and replays its repetitions through it: the rng state, the failure clock
// and the timeline live inline in the struct, the family step and the
// distribution are computed once per campaign and shared, and the
// exponential law — the paper's failure model and the overwhelmingly common
// configuration — is sampled directly instead of through the
// dist.Distribution interface.
//
// Every family step is bit-identical to its reference walker on the
// substream rng.At(Seed, rep): same draws in the same order, same
// floating-point operations in the same association. That equivalence is the
// load-bearing contract (golden campaign CSVs and cached cells depend on it)
// and is pinned exactly by TestReplicaRunnerMatchesSimulateOnce and
// TestSilentDESEquivalence.
type replicaRunner struct {
	fam     family
	seed    uint64
	horizon float64

	// distrib is the shared inter-arrival law; when it is the exponential
	// family, isExp short-circuits sampling to negMTBF * ln(U) — the exact
	// expression dist.Exponential.Sample evaluates — with no dynamic
	// dispatch on the hot path.
	distrib dist.Distribution
	negMTBF float64
	isExp   bool

	src rng.Source
	// lottery is a second per-replica stream for steps that draw more than
	// failure arrivals (the two-level coverage lottery).
	lottery rng.Source

	// expBuf holds runExp's batched failure arrival times; drawEWMA tracks
	// the per-replica draw consumption that sizes its adaptive fills.
	expBuf   [expBatch]float64
	drawEWMA int

	// Trace-replay state: when tr is non-nil the runner replays the
	// materialized arrival prefix arrivals[trPos:trEnd] of the current
	// replica instead of drawing; once the prefix is exhausted, trLive
	// restores the replica's saved generator state and drawing continues
	// scalar — bit-identical to never having materialized anything.
	tr           *TraceArena
	trPos, trEnd int
	trRep        int
	trLive       bool

	// Timeline state, mirroring the timeline type field for field.
	now    float64
	next   float64
	faults int
	capped bool
	b      Breakdown

	// Control-variate instrumentation for adaptive runs: when cvHorizon is
	// positive, nextArrival counts every arrival drawn (or replayed) at or
	// below it, and runMeasured tops the count up past the run's end so
	// cvCount is exactly N(cvHorizon) — for the exponential law a Poisson
	// count with known mean cvHorizon/MTBF. Zero (the default, and always
	// the case without a precision block) keeps the branch dead.
	cvHorizon float64
	cvCount   int
}

// newReplicaRunner prepares a worker-local runner for fam over clock c.
func newReplicaRunner(fam family, c clock) *replicaRunner {
	r := &replicaRunner{fam: fam, seed: c.seed, horizon: c.horizon, distrib: c.distrib, tr: c.tr, cvHorizon: c.cvHorizon}
	if e, ok := c.distrib.(dist.Exponential); ok {
		r.isExp = true
		r.negMTBF = -e.Mean()
	}
	return r
}

// run executes repetition rep on the substream rng.At(Seed, rep).
func (r *replicaRunner) run(rep int) RunResult {
	if r.tr == nil {
		r.src.Reseed(rng.At1(r.seed, uint64(rep)))
	} else {
		// Trace replay: point the cursor at the replica's materialized
		// prefix; nextArrival reads it (and continues live past its end).
		r.trRep = rep
		r.trPos, r.trEnd = r.tr.offsets[rep], r.tr.offsets[rep+1]
		r.trLive = false
	}
	return r.fam.step(r, rep)
}

// runMeasured executes repetition rep and additionally returns the
// control-variate observation: the number of failure arrivals in
// [0, cvHorizon]. The walk counts every arrival it drew; arrivals beyond the
// run's end but inside the horizon are drawn here as a top-up — extra draws
// are harmless, as every repetition reseeds (or re-points the trace cursor)
// from scratch. With cvHorizon <= 0 this is exactly run.
func (r *replicaRunner) runMeasured(rep int) (RunResult, float64) {
	r.cvCount = 0
	res := r.run(rep)
	if r.cvHorizon > 0 {
		for next := r.next; next <= r.cvHorizon; {
			next = r.nextArrival(next)
		}
	}
	return res, float64(r.cvCount)
}

// nextArrival returns the failure arrival following next (the running
// prefix sum of inter-arrival draws). Replayed arrivals come straight from
// the arena; past the materialized prefix — or with no arena at all — the
// draw is performed live, with the sampling law resolved once. The float
// accumulation next + sample matches RenewalSource.NextAfter's next +=
// sample exactly, and an arena load returns the identical value that
// accumulation produced at build time.
func (r *replicaRunner) nextArrival(next float64) float64 {
	var v float64
	if r.tr != nil && r.trPos < r.trEnd {
		v = r.tr.arrivals[r.trPos]
		r.trPos++
	} else {
		if r.tr != nil && !r.trLive {
			// First draw past the prefix: resume the replica's generator
			// exactly where arena generation left it.
			r.src.Restore(r.tr.states[r.trRep])
			r.trLive = true
		}
		if r.isExp {
			v = next + r.negMTBF*math.Log(r.src.Float64Open())
		} else {
			v = next + r.distrib.Sample(&r.src)
		}
	}
	// Every arrival — drawn or replayed — passes through here exactly once
	// per replica, so this single branch counts the control variate exactly;
	// cvHorizon is 0 outside adaptive runs and the branch never fires.
	if v <= r.cvHorizon {
		r.cvCount++
	}
	return v
}

// startTimeline resets the timeline for a new replica and draws its first
// failure: one draw at construction (NewRenewalSource), then the
// NextAfter(0) top-up loop of newTimeline.
func (r *replicaRunner) startTimeline() {
	r.b = Breakdown{}
	r.now, r.faults, r.capped = 0, 0, false
	next := r.nextArrival(0)
	for next <= 0 {
		next = r.nextArrival(next)
	}
	r.next = next
}

// advance is timeline.run inlined over the runner state: attempt an action
// of duration d, either completing it or advancing to the failure instant
// and drawing the next failure time.
func (r *replicaRunner) advance(d float64) (float64, bool) {
	if r.capped {
		return 0, true // drain quickly once capped
	}
	if r.now+d <= r.next {
		r.now += d
		if r.now > r.horizon {
			r.capped = true
		}
		return d, true
	}
	done := r.next - r.now
	r.now = r.next
	r.faults++
	// RenewalSource.NextAfter(r.now).
	next := r.next
	for next <= r.now {
		next = r.nextArrival(next)
	}
	r.next = next
	if r.now > r.horizon {
		r.capped = true
		return done, true
	}
	return done, false
}

// recoverLoop is timeline.recover over the runner state.
func (r *replicaRunner) recoverLoop(cost float64) {
	for {
		done, ok := r.advance(cost)
		if ok {
			r.b.Recovery += done
			return
		}
		r.b.Lost += done
	}
}

// reduction accumulates replica results in repetition order.
type reduction struct {
	waste, faults, tfinal, work, ckpt, lost, recovery stats.Accumulator
	truncated                                         int
	// seq is the sequential stopping rule of an adaptive run (nil
	// otherwise).
	seq *stats.Sequential
}

func (a *reduction) add(r RunResult, cv float64) {
	if a.seq != nil {
		a.seq.AddControlled(r.Waste, cv)
	}
	a.waste.Add(r.Waste)
	a.faults.Add(float64(r.Faults))
	a.tfinal.Add(r.TFinal)
	a.work.Add(r.Breakdown.Work)
	a.ckpt.Add(r.Breakdown.Ckpt)
	a.lost.Add(r.Breakdown.Lost)
	a.recovery.Add(r.Breakdown.Recovery)
	if r.Truncated {
		a.truncated++
	}
}

func (a *reduction) aggregate() Aggregate {
	return Aggregate{
		Waste:     a.waste.Summarize(),
		Faults:    a.faults.Summarize(),
		TFinal:    a.tfinal.Summarize(),
		Work:      a.work.Summarize(),
		Ckpt:      a.ckpt.Summarize(),
		Lost:      a.lost.Summarize(),
		Recovery:  a.recovery.Summarize(),
		Runs:      a.waste.N(),
		Truncated: a.truncated,
	}
}

// blockSize bounds the parallel driver's result buffer: replicas run in
// blocks of at most this many, each reduced before the next starts, so
// memory stays O(blockSize) for arbitrarily large campaigns.
const blockSize = 4096

// drive runs up to reps replicas of fam over clock c across a worker pool
// and reduces them in repetition order. Each repetition draws from the
// substream rng.At(Seed, rep) — addressed by repetition index, not by
// worker — and floating-point accumulation is order-dependent, so the
// ordered reduce keeps the aggregate bit-identical for any worker count and
// any scheduling.
//
// With prec nil every replica runs in one pass. With a precision block the
// replicas run in doubling batches with a sequential look after each, until
// the waste CI meets the target or reps is exhausted; a run to the cap
// reduces exactly the replicas, in exactly the order, of a fixed run.
func drive(fam family, c clock, reps, workers int, prec *Precision) AdaptiveAggregate {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, reps)
	runners := make([]*replicaRunner, workers)
	for w := range runners {
		runners[w] = newReplicaRunner(fam, c)
	}
	var acc reduction
	var replicas []float64 // every replica's waste, when the precision block keeps them
	reduce := func(r RunResult, cv float64) {
		acc.add(r, cv)
		if replicas != nil {
			replicas = append(replicas, r.Waste)
		}
	}
	var results []RunResult
	var cvs []float64
	// runRange runs replicas [base, base+count) and reduces them in order.
	// It first grows the arena, if any, through the range: on this
	// goroutine, while no worker runs, so the arena holds exactly the
	// replicas the campaign reaches.
	runRange := func(base, count int) {
		if c.tr != nil {
			c.tr.Grow(base + count)
		}
		if workers == 1 {
			// Serial campaigns reduce on the fly: replicas already complete
			// in repetition order, no block buffer needed.
			for i := 0; i < count; i++ {
				reduce(runners[0].runMeasured(base + i))
			}
			return
		}
		if n := min(count, blockSize); len(results) < n {
			results, cvs = make([]RunResult, n), make([]float64, n)
		}
		// The workers capture these copies by value, which keeps results
		// and cvs themselves off the heap.
		res, cv := results, cvs
		for blk := 0; blk < count; blk += len(res) {
			n := min(len(res), count-blk)
			start := base + blk
			var next atomic.Int64
			var wg sync.WaitGroup
			wg.Add(workers)
			for _, rr := range runners {
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= n {
							return
						}
						res[i], cv[i] = rr.runMeasured(start + i)
					}
				}()
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				reduce(res[i], cv[i])
			}
		}
	}

	if prec == nil {
		runRange(0, reps)
		return AdaptiveAggregate{Aggregate: acc.aggregate(), RepsCap: reps}
	}
	p := prec.withDefaults()
	acc.seq = stats.NewSequential(stats.SequentialOpts{
		Alpha:       1 - p.Confidence,
		RelTarget:   p.RelTarget,
		AbsTarget:   p.AbsTarget,
		UseControl:  c.cvHorizon > 0,
		ControlMean: c.cvHorizon / c.distrib.Mean(),
	})
	if p.KeepReplicas {
		replicas = make([]float64, 0, p.Batch)
	}
	n, batch, stopped := 0, p.Batch, false
	for n < reps {
		m := min(batch, reps-n)
		runRange(n, m)
		n += m
		if _, stop := acc.seq.Look(); stop {
			stopped = true
			break
		}
		batch *= 2
	}
	last := acc.seq.LastInterval()
	return AdaptiveAggregate{
		Aggregate:       acc.aggregate(),
		RepsCap:         reps,
		Looks:           acc.seq.Looks(),
		Stopped:         stopped,
		WasteEstimate:   last.Mean,
		WasteHalfWidth:  last.Half,
		CVActive:        c.cvHorizon > 0,
		CVBeta:          acc.seq.Beta(),
		CVVarianceRatio: acc.seq.VarianceRatio(),
		Replicas:        replicas,
	}
}

// runResult assembles a replica's RunResult: waste is 1 for a run truncated
// at the safety horizon and 1 - useful/tfinal, floored at 0, otherwise.
func runResult(tfinal, useful float64, faults int, capped bool, b Breakdown) RunResult {
	res := RunResult{TFinal: tfinal, Faults: faults, Truncated: capped, Breakdown: b}
	if capped {
		res.Waste = 1
	} else if tfinal > 0 {
		res.Waste = 1 - useful/tfinal
		if res.Waste < 0 {
			res.Waste = 0
		}
	}
	return res
}
