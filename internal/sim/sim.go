// Package sim implements the discrete-event simulator of Section V-A: it
// unfolds the three fault-tolerance protocols on randomly generated failure
// traces and measures the actual execution time, including all the events the
// first-order model neglects — failures during checkpoints, during recovery,
// during downtime, and overlapping failures at small MTBF.
//
// The simulation is event-driven over a timeline: the next failure instant is
// always known, every protocol action (work chunk, checkpoint, recovery) is
// an interval on that timeline, and an action interrupted by a failure
// triggers the protocol-specific reaction (rollback and re-execution for
// checkpoint/rollback phases, checksum reconstruction for ABFT phases).
//
// Three failure families run on one replica engine (runner.go): the paper's
// protocols including the ABFT&PeriodicCkpt composite (Simulate), silent
// errors under verified patterns (SimulateSilent) and two-level
// checkpointing (SimulateMultiLevel). A family supplies only its per-replica
// step over the engine's failure clock; the engine owns the worker pool, the
// repetition-order reduce, trace-arena replay and sequential stopping.
package sim

import (
	"fmt"
	"math"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
	"abftckpt/internal/stats"
)

// FailureSource produces the absolute times of platform failures.
type FailureSource interface {
	// NextAfter returns the time of the first failure strictly after t.
	// Successive calls with non-decreasing t must return non-decreasing
	// results consistent with a single failure realization.
	NextAfter(t float64) float64
}

// RenewalSource is a renewal failure process: inter-arrival times are drawn
// independently from a distribution. With an Exponential distribution this
// is exactly the paper's failure model (a Poisson process with rate 1/MTBF).
type RenewalSource struct {
	dist dist.Distribution
	src  *rng.Source
	next float64
}

// NewRenewalSource creates a renewal process from d, drawing from src.
func NewRenewalSource(d dist.Distribution, src *rng.Source) *RenewalSource {
	r := &RenewalSource{dist: d, src: src}
	r.next = d.Sample(src)
	return r
}

// NextAfter returns the first failure time strictly after t.
func (r *RenewalSource) NextAfter(t float64) float64 {
	for r.next <= t {
		r.next += r.dist.Sample(r.src)
	}
	return r.next
}

// Breakdown decomposes a run's wall-clock time by activity.
type Breakdown struct {
	// Work is the productive time: application progress that was kept.
	Work float64
	// Ckpt is time spent in checkpoints that completed.
	Ckpt float64
	// Lost is re-executed or rolled-back time: work and partial checkpoints
	// destroyed by a failure, and partial recoveries that had to restart.
	Lost float64
	// Recovery is time spent in completed downtime+recovery (or downtime +
	// remainder reload + ABFT reconstruction) operations.
	Recovery float64
}

// Total returns the sum of all categories.
func (b Breakdown) Total() float64 { return b.Work + b.Ckpt + b.Lost + b.Recovery }

// RunResult is the outcome of simulating one complete application execution.
type RunResult struct {
	// TFinal is the simulated makespan.
	TFinal float64
	// Faults is the number of failures that struck during the run.
	Faults int
	// Waste is 1 - usefulTime/TFinal.
	Waste float64
	// Truncated reports that the run hit the safety cap before completing
	// (the scenario is effectively infeasible).
	Truncated bool
	// Breakdown decomposes TFinal by activity.
	Breakdown Breakdown
}

// Config describes a simulation campaign.
type Config struct {
	// Params are the per-epoch application/platform parameters.
	Params model.Params
	// Protocol selects the fault-tolerance strategy.
	Protocol model.Protocol
	// Epochs is the number of application epochs per run (default 1).
	Epochs int
	// Reps is the number of independent runs to aggregate (default 1000,
	// the paper's repetition count).
	Reps int
	// Seed selects the failure-trace family; run i uses substream
	// rng.At(Seed, i) so results are independent of execution order.
	Seed uint64
	// Workers bounds the number of goroutines Simulate uses to run replicas
	// (0: GOMAXPROCS). Results are bit-identical for any worker count.
	Workers int
	// Distribution builds the failure inter-arrival distribution from the
	// MTBF. Defaults to the exponential law of the paper. Simulate calls it
	// once per campaign and shares the returned Distribution across all
	// workers, so Sample must be safe for concurrent use with distinct
	// sources (the stateless laws of internal/dist all are).
	Distribution func(mtbf float64) dist.Distribution
	// Safeguard enables the Section III-B ABFT-activation rule.
	Safeguard bool
	// MaxTimeFactor caps a run at MaxTimeFactor*(Epochs*T0) to keep
	// infeasible scenarios finite; default DefaultMaxTimeFactor.
	MaxTimeFactor float64
}

// DefaultMaxTimeFactor is the Config.MaxTimeFactor default: the horizon
// bound of a run in units of its fault-free useful time. Exported so
// schedulers deriving failure-process identities (internal/scenario's
// cohort keys) can name the same bound.
const DefaultMaxTimeFactor = 1e4

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.Reps <= 0 {
		c.Reps = 1000
	}
	if c.Distribution == nil {
		c.Distribution = func(mtbf float64) dist.Distribution { return dist.NewExponential(mtbf) }
	}
	if c.MaxTimeFactor <= 0 {
		c.MaxTimeFactor = DefaultMaxTimeFactor
	}
	return c
}

// timeline advances simulated time against a failure source.
type timeline struct {
	now     float64
	next    float64
	source  FailureSource
	faults  int
	horizon float64 // safety cap
	capped  bool
}

func newTimeline(src FailureSource, horizon float64) *timeline {
	return &timeline{next: src.NextAfter(0), source: src, horizon: horizon}
}

// run attempts to execute an action of duration d. If no failure interrupts,
// it advances time by d and reports success. Otherwise it advances to the
// failure instant and returns the fraction of d that completed.
func (t *timeline) run(d float64) (done float64, ok bool) {
	if t.capped {
		return 0, true // drain quickly once capped
	}
	if t.now+d <= t.next {
		t.now += d
		if t.now > t.horizon {
			t.capped = true
		}
		return d, true
	}
	done = t.next - t.now
	t.now = t.next
	t.faults++
	t.next = t.source.NextAfter(t.now)
	if t.now > t.horizon {
		t.capped = true
		return done, true
	}
	return done, false
}

// recover completes one downtime+recovery operation of the given cost,
// restarting it from scratch every time a failure interrupts it.
func (t *timeline) recover(cost float64, b *Breakdown) {
	for {
		done, ok := t.run(cost)
		if ok {
			b.Recovery += done
			return
		}
		b.Lost += done
	}
}

// phaseKind selects the protection regime of one phase.
type phaseKind int

const (
	phasePeriodic phaseKind = iota // periodic checkpoint + rollback
	phaseShort                     // single work chunk + trailing checkpoint
	phaseABFT                      // ABFT: forward recovery, no re-execution
)

// phaseSpec is one phase of an epoch with its protection parameters.
type phaseSpec struct {
	kind     phaseKind
	work     float64 // fault-free work duration (already scaled by phi for ABFT)
	period   float64 // checkpoint period (periodic only)
	ckpt     float64 // periodic/exit checkpoint cost
	trailing float64 // trailing checkpoint cost (short phases)
	recovery float64 // downtime + reload (+ reconstruction for ABFT)
	// chunks is the exact chunk sequence simPhase's float loop produces for
	// a periodic phase (it is failure-independent, so identical for every
	// replica). The engine fills it once per campaign and runExp iterates
	// it instead of re-deriving each chunk from a serial "completed"
	// accumulation on the critical path; the reference walkers leave it nil.
	chunks []float64
}

// simPhase executes one phase on the timeline.
func simPhase(t *timeline, ph phaseSpec, b *Breakdown) {
	switch ph.kind {
	case phaseABFT:
		remaining := ph.work
		for remaining > 0 && !t.capped {
			done, ok := t.run(remaining)
			// ABFT retains progress: completed work counts even when a
			// failure interrupted the attempt.
			b.Work += done
			remaining -= done
			if !ok {
				t.recover(ph.recovery, b)
			}
		}
		// Exit checkpoint of the LIBRARY dataset; a failure during it is
		// repaired by ABFT reconstruction and the checkpoint restarts.
		for !t.capped {
			done, ok := t.run(ph.ckpt)
			if ok {
				b.Ckpt += done
				return
			}
			b.Lost += done
			t.recover(ph.recovery, b)
		}

	case phaseShort:
		// All-or-nothing: a failure loses all progress since phase start
		// (there is no intermediate checkpoint), including the trailing
		// checkpoint if it had begun.
		for !t.capped {
			done, ok := t.run(ph.work)
			if !ok {
				b.Lost += done
				t.recover(ph.recovery, b)
				continue
			}
			var cd float64
			if ph.trailing > 0 {
				var ckptOK bool
				cd, ckptOK = t.run(ph.trailing)
				if !ckptOK {
					b.Lost += done + cd
					t.recover(ph.recovery, b)
					continue
				}
			}
			b.Work += done
			b.Ckpt += cd
			return
		}

	case phasePeriodic:
		workPerPeriod := ph.period - ph.ckpt
		completed := 0.0
		for completed < ph.work && !t.capped {
			chunk := math.Min(workPerPeriod, ph.work-completed)
			// Attempt chunk + checkpoint; on failure, roll back to the
			// last completed checkpoint and retry the chunk.
			done, ok := t.run(chunk)
			if !ok {
				b.Lost += done
				t.recover(ph.recovery, b)
				continue
			}
			cd, ckptOK := t.run(ph.ckpt)
			if !ckptOK {
				b.Lost += done + cd
				t.recover(ph.recovery, b)
				continue
			}
			b.Work += done
			b.Ckpt += cd
			completed += chunk
		}

	default:
		panic(fmt.Sprintf("sim: unknown phase kind %d", ph.kind))
	}
}

// epochPhases builds the phase sequence of one epoch for a protocol,
// mirroring exactly the regime decisions of the analytical model.
func epochPhases(proto model.Protocol, p model.Params, safeguard bool) []phaseSpec {
	dr := p.D + p.R
	abftRecovery := p.D + p.EffectiveRLbar() + p.Recons

	// general phase under full periodic checkpointing, trailing checkpoint
	// "trail" when the phase is shorter than the optimal period.
	general := func(work, trail float64) phaseSpec {
		period, ok := model.OptimalPeriod(p.C, p.Mu, p.D, p.R)
		if ok && work >= period {
			return phaseSpec{kind: phasePeriodic, work: work, period: period, ckpt: p.C, recovery: dr}
		}
		return phaseSpec{kind: phaseShort, work: work, trailing: trail, recovery: dr}
	}
	// library phase under incremental periodic checkpointing (Bi).
	libraryBi := func(work float64) phaseSpec {
		cl := p.CL()
		period, ok := model.OptimalPeriod(cl, p.Mu, p.D, p.R)
		if ok && work >= period {
			return phaseSpec{kind: phasePeriodic, work: work, period: period, ckpt: cl, recovery: dr}
		}
		return phaseSpec{kind: phaseShort, work: work, trailing: cl, recovery: dr}
	}

	switch proto {
	case model.PurePeriodicCkpt:
		return []phaseSpec{general(p.T0, 0)}
	case model.BiPeriodicCkpt:
		phases := make([]phaseSpec, 0, 2)
		if p.TG() > 0 {
			phases = append(phases, general(p.TG(), p.C))
		}
		if p.TL() > 0 {
			phases = append(phases, libraryBi(p.TL()))
		}
		return phases
	case model.AbftPeriodicCkpt:
		phases := make([]phaseSpec, 0, 2)
		phases = append(phases, general(p.TG(), p.CLbar()))
		if p.TL() > 0 {
			abftOn := true
			if safeguard {
				pg, ok := model.OptimalPeriod(p.C, p.Mu, p.D, p.R)
				if ok && p.Phi*p.TL()+p.CL() < pg {
					abftOn = false
				}
			}
			if abftOn {
				phases = append(phases, phaseSpec{
					kind: phaseABFT, work: p.Phi * p.TL(), ckpt: p.CL(), recovery: abftRecovery,
				})
			} else {
				phases = append(phases, libraryBi(p.TL()))
			}
		}
		return phases
	default:
		panic(fmt.Sprintf("sim: unknown protocol %v", proto))
	}
}

// SimulateOnce executes one full application run against one failure trace.
// It is the reference walker the campaign engine's periodic step is pinned
// to (TestReplicaRunnerMatchesSimulateOnce).
func SimulateOnce(cfg Config, source FailureSource) RunResult {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	useful := float64(cfg.Epochs) * cfg.Params.T0
	t := newTimeline(source, cfg.MaxTimeFactor*math.Max(useful, 1))
	var b Breakdown
	phases := epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard)
	for e := 0; e < cfg.Epochs && !t.capped; e++ {
		for _, ph := range phases {
			simPhase(t, ph, &b)
		}
	}
	return runResult(t.now, useful, t.faults, t.capped, b)
}

// Aggregate summarizes a simulation campaign. Every Summary carries the
// sample mean, standard deviation and 95% confidence half-width, so
// simulator-vs-model comparisons can assert statistically (|sim - model|
// against Waste.CI95) instead of with ad-hoc tolerances.
type Aggregate struct {
	Waste  stats.Summary
	Faults stats.Summary
	TFinal stats.Summary
	// Work, Ckpt, Lost and Recovery summarize the per-run wall-clock
	// breakdown by activity (seconds).
	Work      stats.Summary
	Ckpt      stats.Summary
	Lost      stats.Summary
	Recovery  stats.Summary
	Runs      int
	Truncated int
}

// Options are the two execution choices of a periodic campaign.
type Options struct {
	// Arena, when non-nil, replays failure arrivals from a prebuilt
	// TraceArena instead of drawing them. Per-replica results are
	// bit-identical to drawing live (pinned by
	// TestSimulateFromTraceMatchesSimulate), while the arena's RNG and
	// math.Log work is shared across every campaign replaying it. Replicas
	// that outrun their materialized prefix continue drawing live from the
	// arena's saved generator states, so correctness never depends on the
	// arena's horizon.
	//
	// The arena must hold at least cfg.Reps replica streams for cfg.Seed,
	// drawn from the same distribution as cfg (seed, repetition count and
	// the distribution mean are checked; the caller is responsible for
	// matching the distribution family and shape, which the per-cell
	// process keys of internal/scenario guarantee). Cohort scheduling sizes
	// arenas by the repetition cap, so any cell of a cohort, adaptive or
	// fixed, can replay them.
	Arena *TraceArena
	// Precision, when set (non-zero), turns cfg.Reps into a cap: replicas
	// run in doubling batches until the waste CI half-width meets the target
	// (see Precision). With an unreachable target every replica runs and the
	// embedded Aggregate is bit-identical to a run without a precision
	// block (pinned by TestSimulateAdaptiveAtCapMatchesSimulate).
	Precision Precision
}

// adaptive reports whether the options carry a precision block.
func (o Options) adaptive() bool { return o.Precision != Precision{} }

// Simulate runs up to cfg.Reps independent executions across a worker pool
// and aggregates them. Each repetition draws its failure trace from the
// substream rng.At(Seed, rep) — addressed by repetition index, not by
// worker — and the per-run results are reduced sequentially in repetition
// order, so the aggregate is reproducible bit-for-bit regardless of
// cfg.Workers and of scheduling order.
//
// Each worker drives a preallocated replicaRunner, so the steady state of a
// campaign performs no per-replica allocations (pinned by
// TestReplicaRunnerAllocFree) and no dynamic dispatch for exponential
// failures, while remaining bit-identical to the reference SimulateOnce
// walker (pinned by TestReplicaRunnerMatchesSimulateOnce).
//
// Without a precision block only the embedded Aggregate and RepsCap
// (cfg.Reps) of the result are set.
func Simulate(cfg Config, o Options) AdaptiveAggregate {
	cfg = cfg.withDefaults()
	fam, c := cfg.engine(o)
	var prec *Precision
	if o.adaptive() {
		prec = &o.Precision
	}
	return drive(fam, c, cfg.Reps, cfg.Workers, prec)
}

// engine validates a defaulted config and resolves its periodic step and
// failure clock. The distribution and the phases are pure values shared by
// every worker, and a misconfigured distribution (e.g. non-positive shape)
// or an unknown protocol panics here on the caller's goroutine, where it is
// recoverable, instead of inside a worker.
func (cfg Config) engine(o Options) (*periodicFamily, clock) {
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	if o.adaptive() {
		if err := o.Precision.Validate(); err != nil {
			panic(err)
		}
	}
	distrib := newDistribution(cfg.Distribution, cfg.Params.Mu)
	if tr := o.Arena; tr != nil {
		switch {
		case tr.seed != cfg.Seed:
			panic(fmt.Sprintf("sim: trace arena seed %d does not match Config.Seed %d", tr.seed, cfg.Seed))
		case tr.Reps() < cfg.Reps:
			panic(fmt.Sprintf("sim: trace arena holds %d replica streams, campaign needs %d", tr.Reps(), cfg.Reps))
		case distrib.Mean() != tr.mean:
			panic(fmt.Sprintf("sim: trace arena mean %v does not match distribution mean %v", tr.mean, distrib.Mean()))
		}
	}
	phases := epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard)
	for i := range phases {
		if ph := &phases[i]; ph.kind == phasePeriodic {
			ph.chunks = chunkSchedule(ph)
		}
	}
	fam := &periodicFamily{phases: phases, epochs: cfg.Epochs, useful: float64(cfg.Epochs) * cfg.Params.T0}
	c := clock{seed: cfg.Seed, distrib: distrib, tr: o.Arena, horizon: cfg.MaxTimeFactor * math.Max(fam.useful, 1)}
	if o.adaptive() {
		c.cvHorizon = cvHorizonFor(distrib, o.Precision, c.horizon)
	}
	return fam, c
}

// newDistribution resolves a campaign's failure law from its constructor,
// panicking on a nil law.
func newDistribution(ctor func(mean float64) dist.Distribution, mean float64) dist.Distribution {
	d := ctor(mean)
	if d == nil {
		panic("sim: Distribution constructor returned nil")
	}
	return d
}

// periodicFamily is the periodic family's campaign-wide step: the epoch's
// phase sequence of the paper's three protocols (pure periodic, bi-periodic
// and ABFT&PeriodicCkpt) walked over the runner's timeline.
type periodicFamily struct {
	phases []phaseSpec
	epochs int
	useful float64
}

// step runs one replica: exponential failures drawn live take the fully
// registerized runExp walker. Every other law, every trace replay (replay
// has no sampling to batch, so the registerized walker holds no advantage
// over plain arena loads) and every control-variate run (its arrivals must
// pass through nextArrival, where the counting lives) take the scalar
// timeline walker. Both are pinned to SimulateOnce by
// TestReplicaRunnerMatchesSimulateOnce.
func (p *periodicFamily) step(r *replicaRunner, _ int) RunResult {
	if r.isExp && r.tr == nil && r.cvHorizon <= 0 {
		return r.runExp(p)
	}
	r.startTimeline()
	for e := 0; e < p.epochs && !r.capped; e++ {
		for i := range p.phases {
			r.runPhase(&p.phases[i])
		}
	}
	return runResult(r.now, p.useful, r.faults, r.capped, r.b)
}

// chunkSchedule replicates simPhase's chunk loop for a periodic phase
// exactly, floats and all.
func chunkSchedule(ph *phaseSpec) []float64 {
	workPerPeriod := ph.period - ph.ckpt
	var sched []float64
	completed := 0.0
	for completed < ph.work {
		chunk := workPerPeriod
		if rem := ph.work - completed; rem < chunk {
			chunk = rem
		}
		sched = append(sched, chunk)
		completed += chunk
	}
	return sched
}

// runPhase is simPhase specialized to the runner, with a fast path per phase
// kind for the dominant case — the whole step completes before the next
// failure and below the safety horizon — which skips the advance call and
// its bookkeeping entirely. Every float is accumulated in the same order and
// association as simPhase, so results are bit-identical.
func (r *replicaRunner) runPhase(ph *phaseSpec) {
	switch ph.kind {
	case phaseABFT:
		remaining := ph.work
		for remaining > 0 && !r.capped {
			if end := r.now + remaining; end <= r.next && end <= r.horizon {
				r.now = end
				r.b.Work += remaining
				remaining = 0
				break
			}
			done, ok := r.advance(remaining)
			// ABFT retains progress: completed work counts even when a
			// failure interrupted the attempt.
			r.b.Work += done
			remaining -= done
			if !ok {
				r.recoverLoop(ph.recovery)
			}
		}
		// Exit checkpoint of the LIBRARY dataset; a failure during it is
		// repaired by ABFT reconstruction and the checkpoint restarts.
		for !r.capped {
			if end := r.now + ph.ckpt; end <= r.next && end <= r.horizon {
				r.now = end
				r.b.Ckpt += ph.ckpt
				return
			}
			done, ok := r.advance(ph.ckpt)
			if ok {
				r.b.Ckpt += done
				return
			}
			r.b.Lost += done
			r.recoverLoop(ph.recovery)
		}

	case phaseShort:
		// All-or-nothing: a failure loses all progress since phase start,
		// including the trailing checkpoint if it had begun.
		for !r.capped {
			if end := r.now + ph.work + ph.trailing; end <= r.next && end <= r.horizon {
				r.now = end
				r.b.Work += ph.work
				r.b.Ckpt += ph.trailing
				return
			}
			done, ok := r.advance(ph.work)
			if !ok {
				r.b.Lost += done
				r.recoverLoop(ph.recovery)
				continue
			}
			var cd float64
			if ph.trailing > 0 {
				var ckptOK bool
				cd, ckptOK = r.advance(ph.trailing)
				if !ckptOK {
					r.b.Lost += done + cd
					r.recoverLoop(ph.recovery)
					continue
				}
			}
			r.b.Work += done
			r.b.Ckpt += cd
			return
		}

	case phasePeriodic:
		workPerPeriod := ph.period - ph.ckpt
		completed := 0.0
		for completed < ph.work && !r.capped {
			chunk := workPerPeriod
			if rem := ph.work - completed; rem < chunk {
				chunk = rem
			}
			if end := r.now + chunk + ph.ckpt; end <= r.next && end <= r.horizon {
				r.now = end
				r.b.Work += chunk
				r.b.Ckpt += ph.ckpt
				completed += chunk
				continue
			}
			// Attempt chunk + checkpoint; on failure, roll back to the
			// last completed checkpoint and retry the chunk.
			done, ok := r.advance(chunk)
			if !ok {
				r.b.Lost += done
				r.recoverLoop(ph.recovery)
				continue
			}
			cd, ckptOK := r.advance(ph.ckpt)
			if !ckptOK {
				r.b.Lost += done + cd
				r.recoverLoop(ph.recovery)
				continue
			}
			r.b.Work += done
			r.b.Ckpt += cd
			completed += chunk
		}

	default:
		panic("sim: unknown phase kind")
	}
}
