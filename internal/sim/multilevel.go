package sim

import (
	"math"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
)

// MultiLevelConfig describes a two-level checkpointing simulation campaign:
// fail-stop failures against the schedule of model.MultiLevelParams
// (K segments of Period work + a fast C1 checkpoint, then a slow C2
// checkpoint). A failure is level-1 recoverable with probability Coverage —
// restore R1 from the latest in-memory checkpoint, losing the in-flight
// segment — and otherwise destroys level-1 state: restore R2 from the
// latest level-2 checkpoint, additionally losing every segment committed
// since the pattern started.
type MultiLevelConfig struct {
	// Params are the two-level model parameters. A zero Period or K is
	// resolved to the model's optimal schedule (model.EvaluateMultiLevel),
	// so the simulator always runs the schedule the model prices.
	Params model.MultiLevelParams
	// Reps is the number of independent runs to aggregate (default 1000).
	Reps int
	// Seed selects the failure-trace family; run i draws its arrivals from
	// rng.At(Seed, i) and its coverage lottery from rng.At(Seed, i, 1).
	Seed uint64
	// Workers bounds replica-level parallelism (0: GOMAXPROCS). Results
	// are bit-identical for any worker count.
	Workers int
	// Distribution builds the failure inter-arrival law from Mu; defaults
	// to the exponential law.
	Distribution func(mtbf float64) dist.Distribution
	// MaxTimeFactor caps a run at MaxTimeFactor*W; default
	// DefaultMaxTimeFactor.
	MaxTimeFactor float64
}

func (c MultiLevelConfig) withDefaults() MultiLevelConfig {
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

// resolveSchedule fills a concrete (Period, K) into the params.
func (c MultiLevelConfig) resolveSchedule() model.MultiLevelParams {
	p := c.Params
	if p.Period <= 0 || p.K <= 0 {
		r := model.EvaluateMultiLevel(p)
		p.Period, p.K = r.Period, r.K
	}
	return p
}

// SimulateMultiLevel runs cfg.Reps independent two-level executions on the
// replica engine, bit-identical for any worker count (replica-indexed
// substreams, repetition-order reduce). The aggregate waste converges to
// model.EvaluateMultiLevel's first-order prediction when failures are rare
// relative to the pattern (pinned by TestMultiLevelSimMatchesModel).
//
// Faults counts the failures that struck; Lost includes both in-flight
// partial operations and level-1-committed segments destroyed by an
// uncovered failure.
func SimulateMultiLevel(cfg MultiLevelConfig) Aggregate {
	cfg = cfg.withDefaults()
	fam, c := cfg.engine()
	return drive(fam, c, cfg.Reps, cfg.Workers, nil).Aggregate
}

// engine validates a defaulted config and resolves its two-level step (with
// a concrete schedule) and failure clock.
func (cfg MultiLevelConfig) engine() (*twoLevelFamily, clock) {
	p := cfg.resolveSchedule()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &twoLevelFamily{p: p}, clock{
		seed:    cfg.Seed,
		distrib: newDistribution(cfg.Distribution, cfg.Params.Mu),
		horizon: cfg.MaxTimeFactor * math.Max(p.W, 1),
	}
}

// twoLevelFamily is the two-level family's campaign-wide step: segments of
// work plus a level-1 checkpoint over the runner's timeline, a level-2
// checkpoint every K segments, and a per-failure coverage lottery drawn
// from the runner's second stream, rng.At(Seed, rep, 1).
type twoLevelFamily struct {
	p model.MultiLevelParams // with a resolved schedule
}

func (f *twoLevelFamily) step(r *replicaRunner, rep int) RunResult {
	p := &f.p
	r.lottery.Reseed(rng.At(r.seed, uint64(rep), 1))
	r.startTimeline()

	// pattWork and pattCkpt track the work and level-1 checkpoint time
	// committed since the last level-2 checkpoint: an uncovered failure
	// destroys them (they move to Lost and the work is re-executed).
	done, pattWork, pattCkpt := 0.0, 0.0, 0.0
	seg := 0 // segments committed in the current pattern

	// fail handles one failure: roll back to the appropriate checkpoint.
	fail := func() {
		if !r.recoverTwoLevel(p) {
			// Level-2 rollback: the pattern's committed segments are gone.
			r.b.Lost += pattWork + pattCkpt
			r.b.Work -= pattWork
			r.b.Ckpt -= pattCkpt
			done -= pattWork
			pattWork, pattCkpt = 0, 0
			seg = 0
		}
	}

	for done < p.W && !r.capped {
		// One segment: work chunk + level-1 checkpoint, all-or-nothing
		// against the latest checkpoint.
		chunk := math.Min(p.Period, p.W-done)
		dw, ok := r.advance(chunk)
		if !ok {
			r.b.Lost += dw
			fail()
			continue
		}
		dc, ok := r.advance(p.C1)
		if !ok {
			r.b.Lost += dw + dc
			fail()
			continue
		}
		r.b.Work += dw
		r.b.Ckpt += dc
		done += dw
		pattWork += dw
		pattCkpt += dc
		seg++
		if seg < p.K && done < p.W {
			continue
		}
		// Pattern boundary (or end of execution): level-2 checkpoint,
		// retried from the level-1 state on covered failures.
		for !r.capped {
			d2, ok := r.advance(p.C2)
			if ok {
				r.b.Ckpt += d2
				pattWork, pattCkpt = 0, 0
				seg = 0
				break
			}
			r.b.Lost += d2
			fail()
			if seg == 0 && done < p.W {
				break // the pattern itself was rolled back; re-run it
			}
		}
	}
	return runResult(r.now, p.W, r.faults, r.capped, r.b)
}

// recoverTwoLevel completes one downtime+recovery, escalating to level 2
// when any failure in the chain (the original or one interrupting recovery)
// is uncovered. It reports whether level-1 state survived.
func (r *replicaRunner) recoverTwoLevel(p *model.MultiLevelParams) (l1Intact bool) {
	l1Intact = r.lottery.Float64() < p.Coverage
	for !r.capped {
		cost := p.D + p.R1
		if !l1Intact {
			cost = p.D + p.R2
		}
		done, ok := r.advance(cost)
		if ok {
			r.b.Recovery += done
			return l1Intact
		}
		r.b.Lost += done
		if r.lottery.Float64() >= p.Coverage {
			l1Intact = false
		}
	}
	return l1Intact
}
