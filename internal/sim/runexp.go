package sim

import "abftckpt/internal/rng"

// This file is the registerized exponential walker: the timeline walk of
// runPhase/advance specialized to the paper's exponential failure law, with
// every piece of simulation state (clock, next failure, accumulators) held
// in locals of a single function so the inner loops run out of registers
// instead of chasing runner fields.
//
// Failure sampling is batched: rng.Source.ExpFillFrom pre-computes a block
// of successive failure arrival times into the runner's buffer, and each
// failure consumes the next slot with a plain load. The consumed sequence is
// exactly the prefix of the per-replica substream the scalar draws would
// accumulate — every replica reseeds its stream, so the undrawn tail of the
// final block is discarded without observable effect. Block sizes adapt to
// the campaign: the runner tracks an EWMA of arrivals consumed per replica
// and shrinks the final fills, so the discarded tail stays small while the
// bulk fills stay long enough to pipeline their logarithms. The recovery
// loop lives in a value-passing helper (expRecover) that takes and returns
// plain scalars — no pointers into the runner, no heap traffic.
//
// Every float operation replicates the reference SimulateOnce walker in the
// same order and association, so results are bit-identical (pinned by
// TestReplicaRunnerMatchesSimulateOnce). When editing, change the reference
// implementation first, then mirror it here; the equivalence test will catch
// any drift exactly.

const (
	// expBatch is the arrival-buffer capacity and the bulk fill size: long
	// fills keep rng state in registers and overlap the math.Log calls.
	expBatch = 32
	// expMinFill is the smallest refill, used near the expected end of a
	// replica (and inside expRecover) to bound the discarded tail.
	expMinFill = 8
	// expFillSlack pads the expected remaining draws so a typical replica
	// finishes within its final fill instead of triggering one more.
	expFillSlack = 4
)

// nextFillSize picks how many arrivals to pre-compute: the full batch while
// far from the expected per-replica consumption (ewma == 0 means unknown),
// shrinking to the expected remainder near the end.
func nextFillSize(ewma, drawn int) int {
	n := expBatch
	if ewma > 0 {
		if rem := ewma - drawn + expFillSlack; rem < n {
			n = rem
			if n < expMinFill {
				n = expMinFill
			}
		}
	}
	return n
}

// refillArrivals sizes and performs one buffer refill; out of line so the
// (rare) refill branch stays one call in the walker's hot loops.
//
//go:noinline
func refillArrivals(src *rng.Source, buf *[expBatch]float64, negMTBF, next float64, ewma, drawn int) (int, int, int) {
	blim := nextFillSize(ewma, drawn)
	src.ExpFillFrom(buf[:blim], negMTBF, next)
	return blim, 0, drawn + blim
}

// expRecover completes one downtime+recovery operation of the given cost,
// restarting it from scratch every time a failure interrupts it — exactly
// timeline.recover over scalar state. It must be entered with capped ==
// false; it returns the updated (now, next, faults, bpos, blim, drawn,
// capped, lost, recov). Refills here use expMinFill: recovery-time refills
// are rare and the walker re-sizes at its next own refill.
func expRecover(now, next float64, faults int, cost, negMTBF, horizon float64, src *rng.Source, buf *[expBatch]float64, bpos, blim, drawn int, lost, recov float64) (float64, float64, int, int, int, int, bool, float64, float64) {
	for {
		if now+cost <= next {
			now += cost
			recov += cost
			return now, next, faults, bpos, blim, drawn, now > horizon, lost, recov
		}
		done := next - now
		now = next
		faults++
		for next <= now {
			if bpos == blim {
				blim = expMinFill
				src.ExpFillFrom(buf[:blim], negMTBF, next)
				bpos = 0
				drawn += blim
			}
			next = buf[bpos&(expBatch-1)]
			bpos++
		}
		if now > horizon {
			recov += done
			return now, next, faults, bpos, blim, drawn, true, lost, recov
		}
		lost += done
	}
}

// runExp executes one replica of the timeline walk under exponential
// failures. The comments name the branch of timeline.run each case mirrors:
// "success" (the operation fits before the next failure), "success-capped"
// (fits, but crosses the safety horizon: accounted, then the run drains) and
// "failure-capped" (the interrupting failure itself is beyond the horizon,
// which run reports as ok with partial progress accounted by the caller).
func (r *replicaRunner) runExp(p *periodicFamily) RunResult {
	src := &r.src
	negMTBF, horizon := r.negMTBF, r.horizon
	phases := p.phases
	buf := &r.expBuf
	epochs := p.epochs
	ewma := r.drawEWMA

	var (
		now    float64
		faults int
		capped bool

		work, ck, lost, recov float64 // Breakdown accumulators
	)
	// First failure: one draw at construction (NewRenewalSource), then the
	// NextAfter(0) top-up loop of newTimeline.
	blim := nextFillSize(ewma, 0)
	src.ExpFillFrom(buf[:blim], negMTBF, 0)
	drawn := blim
	next := buf[0]
	bpos := 1
	for next <= 0 {
		if bpos == blim {
			blim, bpos, drawn = refillArrivals(src, buf, negMTBF, next, ewma, drawn)
		}
		next = buf[bpos&(expBatch-1)]
		bpos++
	}

	for e := 0; e < epochs && !capped; e++ {
		for pi := range phases {
			ph := &phases[pi]
			switch ph.kind {
			case phaseABFT:
				phCkpt, phRecovery := ph.ckpt, ph.recovery
				remaining := ph.work
				for remaining > 0 && !capped {
					if end := now + remaining; end <= next && end <= horizon {
						// success: the whole remainder completes this attempt.
						now = end
						work += remaining
						remaining = 0
						break
					}
					if now+remaining <= next {
						// success-capped.
						now += remaining
						capped = true
						work += remaining
						remaining = 0
						break
					}
					// A failure strikes; ABFT retains the completed part.
					done := next - now
					now = next
					faults++
					for next <= now {
						if bpos == blim {
							blim, bpos, drawn = refillArrivals(src, buf, negMTBF, next, ewma, drawn)
						}
						next = buf[bpos&(expBatch-1)]
						bpos++
					}
					work += done
					remaining -= done
					if now > horizon {
						capped = true // failure-capped: no recovery needed
						break
					}
					if now+phRecovery <= next {
						// Recovery completes on the first attempt — the common
						// case, inlined from expRecover's first iteration.
						now += phRecovery
						recov += phRecovery
						if now > horizon {
							capped = true
						}
					} else {
						now, next, faults, bpos, blim, drawn, capped, lost, recov = expRecover(now, next, faults, phRecovery, negMTBF, horizon, src, buf, bpos, blim, drawn, lost, recov)
					}
				}
				// Exit checkpoint of the LIBRARY dataset, retried under ABFT
				// reconstruction.
				for !capped {
					if end := now + phCkpt; end <= next && end <= horizon {
						now = end
						ck += phCkpt
						break
					}
					if now+phCkpt <= next {
						// success-capped.
						now += phCkpt
						capped = true
						ck += phCkpt
						break
					}
					done := next - now
					now = next
					faults++
					for next <= now {
						if bpos == blim {
							blim, bpos, drawn = refillArrivals(src, buf, negMTBF, next, ewma, drawn)
						}
						next = buf[bpos&(expBatch-1)]
						bpos++
					}
					if now > horizon {
						capped = true
						ck += done // failure-capped: partial checkpoint accounted
						break
					}
					lost += done
					if now+phRecovery <= next {
						// Recovery completes on the first attempt.
						now += phRecovery
						recov += phRecovery
						if now > horizon {
							capped = true
						}
					} else {
						now, next, faults, bpos, blim, drawn, capped, lost, recov = expRecover(now, next, faults, phRecovery, negMTBF, horizon, src, buf, bpos, blim, drawn, lost, recov)
					}
				}

			case phaseShort:
				phWork, phTrailing, phRecovery := ph.work, ph.trailing, ph.recovery
				// All-or-nothing: a failure loses all progress since phase
				// start, including the trailing checkpoint if it had begun.
				for !capped {
					if end := now + phWork + phTrailing; end <= next && end <= horizon {
						// success straight through work and trailing checkpoint.
						now = end
						work += phWork
						ck += phTrailing
						break
					}
					if now+phWork <= next {
						now += phWork
						if now > horizon {
							// success-capped: the trailing checkpoint drains.
							capped = true
							work += phWork
							break
						}
						if phTrailing > 0 {
							if now+phTrailing <= next {
								now += phTrailing
								capped = now > horizon // success(-capped)
								work += phWork
								ck += phTrailing
								break
							}
							cd := next - now
							now = next
							faults++
							for next <= now {
								if bpos == blim {
									blim, bpos, drawn = refillArrivals(src, buf, negMTBF, next, ewma, drawn)
								}
								next = buf[bpos&(expBatch-1)]
								bpos++
							}
							if now > horizon {
								capped = true
								work += phWork
								ck += cd // failure-capped partial checkpoint
								break
							}
							lost += phWork + cd
							if now+phRecovery <= next {
								// Recovery completes on the first attempt.
								now += phRecovery
								recov += phRecovery
								capped = now > horizon
							} else {
								now, next, faults, bpos, blim, drawn, capped, lost, recov = expRecover(now, next, faults, phRecovery, negMTBF, horizon, src, buf, bpos, blim, drawn, lost, recov)
							}
							continue
						}
						work += phWork
						break
					}
					// Failure during the work chunk.
					done := next - now
					now = next
					faults++
					for next <= now {
						if bpos == blim {
							blim, bpos, drawn = refillArrivals(src, buf, negMTBF, next, ewma, drawn)
						}
						next = buf[bpos&(expBatch-1)]
						bpos++
					}
					if now > horizon {
						capped = true
						work += done // failure-capped: partial kept by run's ok
						break
					}
					lost += done
					if now+phRecovery <= next {
						// Recovery completes on the first attempt.
						now += phRecovery
						recov += phRecovery
						if now > horizon {
							capped = true
						}
					} else {
						now, next, faults, bpos, blim, drawn, capped, lost, recov = expRecover(now, next, faults, phRecovery, negMTBF, horizon, src, buf, bpos, blim, drawn, lost, recov)
					}
				}

			case phasePeriodic:
				phCkpt, phRecovery := ph.ckpt, ph.recovery
				sched := ph.chunks
				for ci := 0; ci < len(sched) && !capped; {
					chunk := sched[ci]
					if end := now + chunk + phCkpt; end <= next && end <= horizon {
						// success: chunk and checkpoint both complete — the
						// dominant iteration, fully in registers.
						now = end
						work += chunk
						ck += phCkpt
						ci++
						continue
					}
					if now+chunk <= next {
						now += chunk
						if now > horizon {
							// success-capped: the checkpoint drains.
							capped = true
							work += chunk
							ci++
							continue
						}
						if now+phCkpt <= next {
							now += phCkpt
							capped = now > horizon // success(-capped)
							work += chunk
							ck += phCkpt
							ci++
							continue
						}
						cd := next - now
						now = next
						faults++
						for next <= now {
							if bpos == blim {
								blim, bpos, drawn = refillArrivals(src, buf, negMTBF, next, ewma, drawn)
							}
							next = buf[bpos&(expBatch-1)]
							bpos++
						}
						if now > horizon {
							capped = true
							work += chunk
							ck += cd // failure-capped partial checkpoint
							ci++
							continue
						}
						// Roll back to the last completed checkpoint.
						lost += chunk + cd
						if now+phRecovery <= next {
							// Recovery completes on the first attempt.
							now += phRecovery
							recov += phRecovery
							if now > horizon {
								capped = true
							}
						} else {
							now, next, faults, bpos, blim, drawn, capped, lost, recov = expRecover(now, next, faults, phRecovery, negMTBF, horizon, src, buf, bpos, blim, drawn, lost, recov)
						}
						continue
					}
					// Failure during the chunk.
					done := next - now
					now = next
					faults++
					for next <= now {
						if bpos == blim {
							blim, bpos, drawn = refillArrivals(src, buf, negMTBF, next, ewma, drawn)
						}
						next = buf[bpos&(expBatch-1)]
						bpos++
					}
					if now > horizon {
						capped = true
						work += done // failure-capped: run reports ok
						ci++
						continue
					}
					lost += done
					if now+phRecovery <= next {
						// Recovery completes on the first attempt.
						now += phRecovery
						recov += phRecovery
						if now > horizon {
							capped = true
						}
					} else {
						now, next, faults, bpos, blim, drawn, capped, lost, recov = expRecover(now, next, faults, phRecovery, negMTBF, horizon, src, buf, bpos, blim, drawn, lost, recov)
					}
				}

			default:
				panic("sim: unknown phase kind")
			}
		}
	}

	// Feed the adaptive fill sizing with what this replica actually used.
	consumed := drawn - (blim - bpos)
	if r.drawEWMA == 0 {
		r.drawEWMA = consumed
	} else {
		r.drawEWMA += (consumed - r.drawEWMA) / 4
	}

	return runResult(now, p.useful, faults, capped, Breakdown{Work: work, Ckpt: ck, Lost: lost, Recovery: recov})
}
