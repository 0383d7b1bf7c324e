package sim

import (
	"math"
	"testing"

	"abftckpt/internal/model"
)

// buildArenaFor materializes the failure process of cfg (which must already
// carry the reps to cover) at the given horizon.
func buildArenaFor(cfg Config, horizon float64) *TraceArena {
	cfg = cfg.withDefaults()
	return BuildTraceArena(cfg.Distribution(cfg.Params.Mu), cfg.Seed, cfg.Reps, horizon)
}

// Replaying an arena (Options.Arena) must be bit-identical — not
// approximately equal — to drawing live on every configuration: all protocols, all failure laws, the
// safeguard, multi-epoch runs and horizon truncation, and for every arena
// horizon, including horizons so short that every
// replica falls back to live drawing mid-run. Golden campaign CSVs and the
// shared cell cache depend on this equivalence.
func TestSimulateFromTraceMatchesSimulate(t *testing.T) {
	for ci, cfg := range equivConfigs() {
		cfg.Reps = 48
		cfg.Workers = 1
		want := simulate(cfg)
		useful := cfg.Params.T0
		if cfg.Epochs > 1 {
			useful *= float64(cfg.Epochs)
		}
		for _, horizon := range []float64{3 * useful, 0.3 * useful, 0} {
			tr := buildArenaFor(cfg, horizon)
			got := Simulate(cfg, Options{Arena: tr}).Aggregate
			if got != want {
				t.Fatalf("config %d horizon %g diverged:\n got %+v\nwant %+v", ci, horizon, got, want)
			}
		}
	}
}

// A campaign may replay fewer repetitions than the arena holds, and any
// worker count must reduce to the same aggregate.
func TestSimulateFromTracePrefixAndWorkers(t *testing.T) {
	cfg := equivConfigs()[0]
	cfg.Reps = 64
	cfg.Workers = 1
	cfg = cfg.withDefaults()
	tr := buildArenaFor(cfg, 2*cfg.Params.T0)

	short := cfg
	short.Reps = 20
	if got, want := Simulate(short, Options{Arena: tr}).Aggregate, simulate(short); got != want {
		t.Fatalf("prefix replay diverged:\n got %+v\nwant %+v", got, want)
	}
	parallel := cfg
	parallel.Workers = 4
	if got, want := Simulate(parallel, Options{Arena: tr}).Aggregate, simulate(cfg); got != want {
		t.Fatalf("parallel replay diverged:\n got %+v\nwant %+v", got, want)
	}
}

// Arena construction is a pure function of (distribution, seed, reps,
// horizon): two builds are identical element for element, and each replica's
// prefix is strictly increasing and crosses the horizon.
func TestBuildTraceArenaDeterministicAndCoversHorizon(t *testing.T) {
	cfg := equivConfigs()[3] // Weibull, to exercise the interface sampler
	cfg.Reps = 16
	cfg = cfg.withDefaults()
	horizon := 1.5 * cfg.Params.T0
	a := buildArenaFor(cfg, horizon)
	b := buildArenaFor(cfg, horizon)
	if a.Len() != b.Len() || a.Reps() != b.Reps() {
		t.Fatalf("non-deterministic arena shape: %d/%d vs %d/%d", a.Len(), a.Reps(), b.Len(), b.Reps())
	}
	for i := range a.arrivals {
		if a.arrivals[i] != b.arrivals[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a.arrivals[i], b.arrivals[i])
		}
	}
	for rep := 0; rep < a.Reps(); rep++ {
		if a.offsets[rep] >= a.offsets[rep+1] {
			t.Fatalf("replica %d has an empty prefix", rep)
		}
		if a.states[rep] != b.states[rep] {
			t.Fatalf("replica %d end state differs", rep)
		}
		prev := 0.0
		for _, v := range a.arrivals[a.offsets[rep]:a.offsets[rep+1]] {
			if v <= prev {
				t.Fatalf("replica %d arrivals not increasing: %v after %v", rep, v, prev)
			}
			prev = v
		}
		if prev <= horizon {
			t.Fatalf("replica %d prefix ends at %v, before the %v horizon", rep, prev, horizon)
		}
	}
	if a.Bytes() <= 0 {
		t.Fatalf("arena reports %d bytes", a.Bytes())
	}
	if est := EstimateArenaArrivals(a.mean, horizon, 16); est < int64(a.Len())/2 {
		t.Fatalf("estimate %d grossly under actual %d", est, a.Len())
	}
}

// Trace replay keeps the zero-allocations-per-replica property of the
// generating walker, including when replicas outrun the prefix and fall
// back to live drawing.
func TestTraceReplayAllocFree(t *testing.T) {
	cfg := Config{Params: model.Fig7Params(2*model.Hour, 0.8), Protocol: model.AbftPeriodicCkpt, Seed: 42}
	cfg.Reps = 128
	cfg = cfg.withDefaults()
	for _, horizon := range []float64{2 * cfg.Params.T0, 0} {
		tr := buildArenaFor(cfg, horizon)
		rr := periodicRunner(cfg, Options{Arena: tr})
		rep := 0
		allocs := testing.AllocsPerRun(100, func() {
			_ = rr.run(rep % cfg.Reps)
			rep++
		})
		if allocs != 0 {
			t.Errorf("horizon %g: replay allocates %v times per replica, want 0", horizon, allocs)
		}
	}
}

// Mismatched arenas must fail loudly: replaying the wrong process would
// silently corrupt cached results.
func TestSimulateFromTraceRejectsMismatchedArena(t *testing.T) {
	cfg := equivConfigs()[0]
	cfg.Reps = 8
	cfg = cfg.withDefaults()
	tr := buildArenaFor(cfg, cfg.Params.T0)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected a panic", name)
			}
		}()
		f()
	}
	wrongSeed := cfg
	wrongSeed.Seed++
	mustPanic("wrong seed", func() { Simulate(wrongSeed, Options{Arena: tr}) })
	tooManyReps := cfg
	tooManyReps.Reps = 9
	mustPanic("too many reps", func() { Simulate(tooManyReps, Options{Arena: tr}) })
	wrongMean := cfg
	wrongMean.Params.Mu *= 2
	mustPanic("wrong mean", func() { Simulate(wrongMean, Options{Arena: tr}) })
	mustPanic("zero reps build", func() { BuildTraceArena(cfg.Distribution(cfg.Params.Mu), 1, 0, 10) })
	mustPanic("infinite horizon build", func() {
		BuildTraceArena(cfg.Distribution(cfg.Params.Mu), 1, 1, math.Inf(1))
	})
}
