package sim

import (
	"math"

	"abftckpt/internal/des"
	"abftckpt/internal/dist"
	"abftckpt/internal/model"
)

// SilentConfig describes a silent-error (SDC) simulation campaign. The
// protocol simulated is exactly the one the analytic model prices
// (model.EvaluateSilent): work split into verified patterns, errors striking
// during work execution only, detection at the pattern-end verification, and
// backward (rollback + full re-execution) or forward (in-place correction +
// protected re-execution of the tainted suffix) recovery.
type SilentConfig struct {
	// Params are the silent-error model parameters (work, rate, costs).
	Params model.SilentParams
	// Mode selects backward or forward recovery.
	Mode model.SilentRecovery
	// Reps is the number of independent runs to aggregate (default 1000).
	Reps int
	// Seed selects the error-trace family; run i draws from the substream
	// rng.At(Seed, i), so results are independent of execution order.
	Seed uint64
	// Workers bounds replica-level parallelism (0: GOMAXPROCS). Results are
	// bit-identical for any worker count.
	Workers int
	// Distribution builds the silent-error inter-arrival law from MuSilent.
	// Defaults to the exponential law, the only one for which the analytic
	// model is exact; other laws probe the model's Poisson assumption.
	Distribution func(mu float64) dist.Distribution
	// MaxTimeFactor caps a run at MaxTimeFactor*W; default
	// DefaultMaxTimeFactor.
	MaxTimeFactor float64
}

func (c SilentConfig) withDefaults() SilentConfig {
	if c.Reps <= 0 {
		c.Reps = 1000
	}
	if c.Distribution == nil {
		c.Distribution = func(mu float64) dist.Distribution { return dist.NewExponential(mu) }
	}
	if c.MaxTimeFactor <= 0 {
		c.MaxTimeFactor = DefaultMaxTimeFactor
	}
	return c
}

// silentPeriod resolves the work per verified pattern of a config.
func silentPeriod(cfg SilentConfig) float64 {
	period := cfg.Params.Period
	if period <= 0 {
		period = model.SilentOptimalPeriod(cfg.Mode, cfg.Params)
	}
	return math.Min(period, cfg.Params.W)
}

// SimulateSilent runs cfg.Reps independent silent-error executions on the
// replica engine, with the same determinism contract as Simulate: replica i
// draws from rng.At(Seed, i) and the reduce is performed in repetition
// order, so the aggregate is bit-identical for any worker count. Under
// exponential errors the aggregate waste converges to model.EvaluateSilent's
// prediction (pinned within CI95 by TestSilentSimMatchesModel).
//
// Each replica's RunResult counts verification time as Ckpt (protection
// overhead), detection/rollback/correction as Recovery, and discarded or
// re-executed work as Lost; Faults is the number of verifications that
// flagged an error.
func SimulateSilent(cfg SilentConfig) Aggregate {
	cfg = cfg.withDefaults()
	fam, c := cfg.engine()
	return drive(fam, c, cfg.Reps, cfg.Workers, nil).Aggregate
}

// engine validates a defaulted config and resolves its silent step and
// failure clock.
func (cfg SilentConfig) engine() (*silentFamily, clock) {
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	return &silentFamily{p: cfg.Params, forward: cfg.Mode == model.SilentForward, period: silentPeriod(cfg)},
		clock{
			seed:    cfg.Seed,
			distrib: newDistribution(cfg.Distribution, cfg.Params.MuSilent),
			horizon: cfg.MaxTimeFactor * math.Max(cfg.Params.W, 1),
		}
}

// silentFamily is the silent-error family's campaign-wide step: verified
// patterns over the runner's failure clock, which here runs on the work
// clock — errors accrue only while (unprotected) work executes, so the
// clock advances by exactly the executed work duration and the wall clock
// is kept separately.
type silentFamily struct {
	p       model.SilentParams
	forward bool
	period  float64
}

func (f *silentFamily) step(r *replicaRunner, _ int) RunResult {
	p := &f.p
	var b Breakdown
	wall, done, detections := 0.0, 0.0, 0
	// consumed is the work-clock time already executed, next the work-clock
	// time of the next error.
	consumed, next := 0.0, r.nextArrival(0)

patterns:
	for done < p.W {
		t := math.Min(f.period, p.W-done)
		for { // verification attempts of this pattern
			// Execute t seconds of work: count the errors that struck it and
			// the offset of the first one within this span.
			end := consumed + t
			count, first := 0, 0.0
			for next <= end {
				if count == 0 {
					first = next - consumed
				}
				count++
				next = r.nextArrival(next)
			}
			consumed = end
			// Two separate adds, mirroring the DES path's work and verify
			// completion events, so both paths stay bit-identical.
			wall += t
			wall += p.V
			if count == 0 {
				b.Work += t
				b.Ckpt += p.V
				break
			}
			detections++
			if f.forward {
				// Correct in place and re-execute the tainted suffix under
				// protection; the pattern is then verified clean.
				taint := t - first
				wall += p.Detect + p.F + taint
				b.Work += t     // clean prefix + protected re-execution, kept
				b.Lost += taint // the corrupted original suffix
				b.Ckpt += p.V
				b.Recovery += p.Detect + p.F
				break
			}
			// Backward: the whole attempt is discarded; restore and retry.
			wall += p.Detect + p.R
			b.Lost += t + p.V
			b.Recovery += p.Detect + p.R
			if wall > r.horizon {
				break patterns
			}
		}
		wall += p.C
		b.Ckpt += p.C
		done += t
		if wall > r.horizon {
			break
		}
	}
	return runResult(wall, p.W, detections, done < p.W, b)
}

// silentOnceDES is the reference walker of the silent family: one run with
// the same semantics as the engine's silent step, but driven by an explicit
// event calendar — each work chunk, verification, recovery and checkpoint is
// a scheduled completion event, and verification events consult the error
// process for the work they cover. errors is a failure process on the work
// clock. Independent codepath kept exactly equivalent (see
// TestSilentDESEquivalence), cross-validating both.
func silentOnceDES(cfg SilentConfig, errors FailureSource) RunResult {
	cfg = cfg.withDefaults()
	period := silentPeriod(cfg)
	horizon := cfg.MaxTimeFactor * math.Max(cfg.Params.W, 1)
	p := cfg.Params
	eng := des.New()
	var b Breakdown
	detections := 0
	capped := false

	// advance executes t seconds of unprotected work on the work clock and
	// reports how many errors struck it and the offset of the first one
	// within this span (meaningless when count is 0).
	consumed := 0.0
	advance := func(t float64) (count int, first float64) {
		end := consumed + t
		for e := errors.NextAfter(consumed); e <= end; e = errors.NextAfter(e) {
			if count == 0 {
				first = e - consumed
			}
			count++
		}
		consumed = end
		return count, first
	}
	after := func(d float64, fn func()) {
		eng.Schedule(eng.Now()+d, fn)
	}
	checkHorizon := func() bool {
		if eng.Now() > horizon {
			capped = true
			eng.Halt()
			return true
		}
		return false
	}

	var pattern func(done float64)
	var attempt func(t, done float64)
	attempt = func(t, done float64) {
		// Work-completion event: silent errors never preempt execution, so
		// the chunk always runs to completion; the subsequent verification
		// event inspects the error process over exactly that chunk.
		after(t, func() {
			count, first := advance(t)
			after(p.V, func() {
				if count == 0 {
					b.Work += t
					b.Ckpt += p.V
					after(p.C, func() {
						b.Ckpt += p.C
						if !checkHorizon() {
							pattern(done + t)
						}
					})
					return
				}
				detections++
				if cfg.Mode == model.SilentForward {
					taint := t - first
					after(p.Detect+p.F+taint, func() {
						b.Work += t
						b.Lost += taint
						b.Ckpt += p.V
						b.Recovery += p.Detect + p.F
						after(p.C, func() {
							b.Ckpt += p.C
							if !checkHorizon() {
								pattern(done + t)
							}
						})
					})
					return
				}
				after(p.Detect+p.R, func() {
					b.Lost += t + p.V
					b.Recovery += p.Detect + p.R
					if !checkHorizon() {
						attempt(t, done)
					}
				})
			})
		})
	}
	pattern = func(done float64) {
		if done >= p.W {
			return
		}
		attempt(math.Min(period, p.W-done), done)
	}
	eng.Schedule(0, func() { pattern(0) })
	eng.Run(math.Inf(1))
	return runResult(eng.Now(), p.W, detections, capped, b)
}
