package sim

import (
	"fmt"
	"testing"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
)

// equivConfigs spans every phase kind, protocol, failure law, the safeguard,
// multi-epoch runs and horizon truncation.
func equivConfigs() []Config {
	weibull := func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(0.7, mtbf) }
	gamma := func(mtbf float64) dist.Distribution { return dist.GammaWithMTBF(2, mtbf) }
	lognormal := func(mtbf float64) dist.Distribution { return dist.LogNormalWithMTBF(1.2, mtbf) }
	return []Config{
		{Params: model.Fig7Params(2*model.Hour, 0.8), Protocol: model.AbftPeriodicCkpt, Seed: 42},
		{Params: model.Fig7Params(1*model.Hour, 0.3), Protocol: model.PurePeriodicCkpt, Seed: 7},
		{Params: model.Fig7Params(4*model.Hour, 0.6), Protocol: model.BiPeriodicCkpt, Seed: 9},
		{Params: model.Fig7Params(2*model.Hour, 0.5), Protocol: model.AbftPeriodicCkpt, Seed: 3, Safeguard: true, Distribution: weibull},
		{Params: model.Fig7Params(3*model.Hour, 0.4), Protocol: model.AbftPeriodicCkpt, Seed: 5, Distribution: gamma},
		{Params: model.Fig7Params(6*model.Hour, 0.9), Protocol: model.BiPeriodicCkpt, Seed: 15, Distribution: lognormal},
		{Params: model.Fig7Params(30*model.Minute, 0.9), Protocol: model.AbftPeriodicCkpt, Seed: 13, Epochs: 3},
		// Near-infeasible: a tight horizon forces truncation through the
		// capped drain paths.
		{Params: model.Fig7Params(10*model.Minute, 0.2), Protocol: model.PurePeriodicCkpt, Seed: 21, MaxTimeFactor: 2},
		{Params: model.Fig7Params(10*model.Minute, 0.8), Protocol: model.AbftPeriodicCkpt, Seed: 23, MaxTimeFactor: 2},
	}
}

// The engine's periodic step must be bit-identical — not approximately
// equal — to both reference walkers, the timeline SimulateOnce and the
// event-calendar SimulateOnceDES, on every substream: the same rng draws in
// the same order, the same float operations in the same association. The
// golden campaign CSVs and every cached cell depend on this.
func TestReplicaRunnerMatchesSimulateOnce(t *testing.T) {
	for ci, cfg := range equivConfigs() {
		cfg = cfg.withDefaults()
		rr := periodicRunner(cfg, Options{})
		truncated := 0
		for rep := 0; rep < 48; rep++ {
			got := rr.run(rep)
			for _, walker := range []struct {
				name string
				once func(Config, FailureSource) RunResult
			}{{"timeline", SimulateOnce}, {"des", SimulateOnceDES}} {
				fs := NewRenewalSource(cfg.Distribution(cfg.Params.Mu), rng.New(rng.At(cfg.Seed, uint64(rep))))
				want := walker.once(cfg, fs)
				if walker.name == "des" && want.Truncated {
					// The calendar halts mid-operation at the horizon and
					// leaves that operation out of the breakdown.
					want.Breakdown = got.Breakdown
				}
				if got != want {
					t.Fatalf("config %d rep %d diverged from the %s walker:\n got %+v\nwant %+v", ci, rep, walker.name, got, want)
				}
			}
			if got.Truncated {
				truncated++
			}
		}
		if cfg.MaxTimeFactor == 2 && truncated == 0 {
			t.Errorf("config %d: expected the tight horizon to truncate at least one replica", ci)
		}
	}
}

// A runner must also be reusable out of repetition order (workers steal
// arbitrary indices): replaying the same rep after unrelated ones is
// bit-identical.
func TestReplicaRunnerIsStateless(t *testing.T) {
	rr := periodicRunner(equivConfigs()[0], Options{})
	first := rr.run(17)
	for _, rep := range []int{3, 99, 0, 17, 41} {
		rr.run(rep)
	}
	if again := rr.run(17); again != first {
		t.Fatalf("replaying rep 17 diverged:\n got %+v\nwant %+v", again, first)
	}
}

// Every family's step performs zero allocations per replica: all state
// lives in the worker's runner. This pins the optimization that took the
// replica loop from 4 allocations per replica to none; a regression here
// shows up long before it is visible in wall-clock benchmarks.
func TestReplicaRunnerAllocFree(t *testing.T) {
	weibull := func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(0.7, mtbf) }
	silentWeibull := silentTestConfig(model.SilentForward)
	silentWeibull.Distribution = weibull
	cases := []struct {
		name string
		rr   *replicaRunner
	}{
		{"exponential", periodicRunner(Config{Params: model.Fig7Params(2*model.Hour, 0.8), Protocol: model.AbftPeriodicCkpt, Seed: 42}, Options{})},
		{"weibull", periodicRunner(Config{Params: model.Fig7Params(2*model.Hour, 0.5), Protocol: model.BiPeriodicCkpt, Seed: 3,
			Distribution: weibull}, Options{})},
		{"silent", newReplicaRunner(silentTestConfig(model.SilentBackward).withDefaults().engine())},
		{"silent weibull", newReplicaRunner(silentWeibull.withDefaults().engine())},
		{"two-level", newReplicaRunner(mlTestConfig().withDefaults().engine())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := tc.rr
			rep := 0
			allocs := testing.AllocsPerRun(100, func() {
				_ = rr.run(rep)
				rep++
			})
			if allocs != 0 {
				t.Errorf("replica run allocates %v times per replica, want 0", allocs)
			}
		})
	}
}

// pinnedCase is one pinned campaign: its waste, faults and tfinal means
// formatted %.8f, and its truncated replica count.
type pinnedCase struct {
	name                  string
	run                   func() Aggregate
	waste, faults, tfinal string
	truncated             int
}

// pinnedCases are campaigns of every failure family whose aggregates are
// pinned to values captured before the families shared one replica engine:
// a coarse end-to-end tripwire on top of the exact per-replica equivalence
// tests. Every case runs 64 replicas on one worker.
func pinnedCases() []pinnedCase {
	weibull := func(m float64) dist.Distribution { return dist.WeibullWithMTBF(0.7, m) }
	silent := func(mode model.SilentRecovery, d func(float64) dist.Distribution) func() Aggregate {
		return func() Aggregate {
			cfg := silentTestConfig(mode)
			cfg.Reps, cfg.Seed, cfg.Workers, cfg.Distribution = 64, 42, 1, d
			return SimulateSilent(cfg)
		}
	}
	twoLevel := func(mu, maxTime float64, d func(float64) dist.Distribution) func() Aggregate {
		return func() Aggregate {
			cfg := mlTestConfig()
			cfg.Params.Mu = mu
			cfg.Reps, cfg.Seed, cfg.Workers, cfg.Distribution, cfg.MaxTimeFactor = 64, 42, 1, d, maxTime
			return SimulateMultiLevel(cfg)
		}
	}
	return []pinnedCase{
		// The Figure 7 scenario at mu=2h, alpha=0.8, seed 42.
		{name: "periodic composite", run: func() Aggregate {
			return simulate(Config{
				Params: model.Fig7Params(2*model.Hour, 0.8), Protocol: model.AbftPeriodicCkpt,
				Reps: 64, Seed: 42, Workers: 1,
			})
		}, waste: "0.15613855", faults: "100.43750000", tfinal: "716947.31994638"},
		{name: "silent backward exp", run: silent(model.SilentBackward, nil),
			waste: "0.25401642", faults: "20.81250000", tfinal: "1341982.74700414"},
		{name: "silent backward weibull", run: silent(model.SilentBackward, weibull),
			waste: "0.24645650", faults: "19.53125000", tfinal: "1329783.61728534"},
		{name: "silent forward exp", run: silent(model.SilentForward, nil),
			waste: "0.16364178", faults: "18.06250000", tfinal: "1196061.27275233"},
		{name: "silent forward weibull", run: silent(model.SilentForward, weibull),
			waste: "0.15922848", faults: "16.45312500", tfinal: "1190024.31268999"},
		{name: "two-level exp", run: twoLevel(2e5, 0, nil),
			waste: "0.07527872", faults: "5.40625000", tfinal: "1082500.67371602"},
		{name: "two-level weibull", run: twoLevel(2e5, 0, weibull),
			waste: "0.07193058", faults: "5.50000000", tfinal: "1079085.02327374"},
		// A failure rate at which the 2W horizon truncates about a third of
		// the replicas, pinning the capped drain paths.
		{name: "two-level truncating", run: twoLevel(1.8e4, 2, nil),
			waste: "0.63580679", faults: "104.54687500", tfinal: "1852618.99758451", truncated: 23},
	}
}

func TestSimulateAggregatePinned(t *testing.T) {
	for _, tc := range pinnedCases() {
		t.Run(tc.name, func(t *testing.T) {
			agg := tc.run()
			for _, p := range []struct {
				name string
				got  float64
				want string
			}{
				{"waste mean", agg.Waste.Mean, tc.waste},
				{"faults mean", agg.Faults.Mean, tc.faults},
				{"tfinal mean", agg.TFinal.Mean, tc.tfinal},
			} {
				if got := fmt.Sprintf("%.8f", p.got); got != p.want {
					t.Errorf("%s = %s, want pinned %s", p.name, got, p.want)
				}
			}
			if agg.Truncated != tc.truncated || agg.Runs != 64 {
				t.Errorf("runs/truncated = %d/%d, want 64/%d", agg.Runs, agg.Truncated, tc.truncated)
			}
		})
	}
}
