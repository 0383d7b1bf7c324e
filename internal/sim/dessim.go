package sim

import (
	"math"

	"abftckpt/internal/des"
)

// SimulateOnceDES executes one run with the same protocol semantics as
// SimulateOnce, but driven by an explicit discrete-event calendar
// (internal/des): every work chunk, checkpoint and recovery is a scheduled
// completion event that a failure event may preempt. The two
// implementations are independent codepaths kept exactly equivalent (see
// TestDESEquivalenceExact), which cross-validates both.
func SimulateOnceDES(cfg Config, source FailureSource) RunResult {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	phases := epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard)
	useful := float64(cfg.Epochs) * cfg.Params.T0
	r := &desWalker{
		eng:     des.New(),
		source:  source,
		horizon: cfg.MaxTimeFactor * math.Max(useful, 1),
	}

	// Chain epochs and phases as continuations.
	var runFrom func(epoch, phase int)
	runFrom = func(epoch, phase int) {
		if r.capped || epoch >= cfg.Epochs {
			return
		}
		if phase >= len(phases) {
			runFrom(epoch+1, 0)
			return
		}
		r.runPhase(phases[phase], func() { runFrom(epoch, phase+1) })
	}
	r.eng.EnableEventReuse()
	r.eng.Schedule(0, func() { runFrom(0, 0) })
	r.eng.Run(math.Inf(1))
	return runResult(r.eng.Now(), useful, r.faults, r.capped, r.b)
}

// desWalker holds the event-driven run state.
type desWalker struct {
	eng     *des.Engine
	source  FailureSource
	b       Breakdown
	faults  int
	horizon float64
	capped  bool
}

// attempt schedules an operation of duration d: either its completion event
// fires (onOK) or the next failure preempts it (onFail with the completed
// fraction). Reaching the safety horizon halts the run.
func (r *desWalker) attempt(d float64, onOK func(), onFail func(done float64)) {
	start := r.eng.Now()
	next := r.source.NextAfter(start)
	if start+d <= next {
		r.eng.Schedule(start+d, func() {
			if r.checkHorizon() {
				return
			}
			onOK()
		})
		return
	}
	r.eng.Schedule(next, func() {
		r.faults++
		if r.checkHorizon() {
			return
		}
		onFail(next - start)
	})
}

func (r *desWalker) checkHorizon() bool {
	if r.eng.Now() > r.horizon {
		r.capped = true
		r.eng.Halt()
		return true
	}
	return false
}

// recoverThen completes one downtime+recovery of the given cost, restarting
// on failure, then continues.
func (r *desWalker) recoverThen(cost float64, cont func()) {
	r.attempt(cost,
		func() {
			r.b.Recovery += cost
			cont()
		},
		func(done float64) {
			r.b.Lost += done
			r.recoverThen(cost, cont)
		})
}

// runPhase executes one phase, then calls done.
func (r *desWalker) runPhase(ph phaseSpec, done func()) {
	switch ph.kind {
	case phaseABFT:
		var step func(remaining float64)
		step = func(remaining float64) {
			if remaining <= 0 {
				r.exitCheckpoint(ph, done)
				return
			}
			r.attempt(remaining,
				func() {
					r.b.Work += remaining
					r.exitCheckpoint(ph, done)
				},
				func(partial float64) {
					// ABFT retains completed work.
					r.b.Work += partial
					r.recoverThen(ph.recovery, func() { step(remaining - partial) })
				})
		}
		step(ph.work)

	case phaseShort:
		var tryOnce func()
		tryOnce = func() {
			r.attempt(ph.work,
				func() {
					if ph.trailing <= 0 {
						r.b.Work += ph.work
						done()
						return
					}
					r.attempt(ph.trailing,
						func() {
							r.b.Work += ph.work
							r.b.Ckpt += ph.trailing
							done()
						},
						func(cd float64) {
							r.b.Lost += ph.work + cd
							r.recoverThen(ph.recovery, tryOnce)
						})
				},
				func(partial float64) {
					r.b.Lost += partial
					r.recoverThen(ph.recovery, tryOnce)
				})
		}
		tryOnce()

	case phasePeriodic:
		workPerPeriod := ph.period - ph.ckpt
		var period func(completed float64)
		period = func(completed float64) {
			if completed >= ph.work {
				done()
				return
			}
			chunk := math.Min(workPerPeriod, ph.work-completed)
			r.attempt(chunk,
				func() {
					r.attempt(ph.ckpt,
						func() {
							r.b.Work += chunk
							r.b.Ckpt += ph.ckpt
							period(completed + chunk)
						},
						func(cd float64) {
							r.b.Lost += chunk + cd
							r.recoverThen(ph.recovery, func() { period(completed) })
						})
				},
				func(partial float64) {
					r.b.Lost += partial
					r.recoverThen(ph.recovery, func() { period(completed) })
				})
		}
		period(0)

	default:
		panic("sim: unknown phase kind")
	}
}

// exitCheckpoint performs the ABFT exit checkpoint, retrying under ABFT
// recovery, then continues.
func (r *desWalker) exitCheckpoint(ph phaseSpec, done func()) {
	if ph.ckpt <= 0 {
		done()
		return
	}
	r.attempt(ph.ckpt,
		func() {
			r.b.Ckpt += ph.ckpt
			done()
		},
		func(cd float64) {
			r.b.Lost += cd
			r.recoverThen(ph.recovery, func() { r.exitCheckpoint(ph, done) })
		})
}
