package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"abftckpt/internal/scenario"
	"abftckpt/internal/store"
)

// campaignFile is one campaign input of a workload. reps, when nonzero,
// replaces the campaign's default repetition count.
type campaignFile struct {
	path string
	reps int
}

var campaignSets = map[string][]campaignFile{
	// The Figure 7 diff heatmaps of all three protocols over shared traces,
	// one campaign per corner of {exponential, Weibull k=0.7} x {fixed 100
	// reps, adaptive rel_ci 0.05 capped at 400}.
	wlPaired: {
		{path: "perfbench/campaigns/paired_exp_fixed.json"},
		{path: "perfbench/campaigns/paired_exp_adaptive.json"},
		{path: "perfbench/campaigns/paired_weibull_fixed.json"},
		{path: "perfbench/campaigns/paired_weibull_adaptive.json"},
	},
	// multilevel.json runs at a quarter of its replicas so that one
	// repetition fits a run several times over; its largest ml_sim cell
	// still takes over half of the serial time.
	wlCompanion: {
		{path: "examples/campaigns/silent.json"},
		{path: "examples/campaigns/multilevel.json", reps: 25},
	},
	wlFleet: {
		{path: "examples/campaigns/paper.json"},
	},
}

// deriveSeed maps the workload seed and a label to an input seed.
func deriveSeed(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return splitmix64(seed ^ h.Sum64())
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// loadCampaigns reads and validates a workload's campaigns, with every
// campaign and scenario seed derived from the workload seed.
func loadCampaigns(files []campaignFile, seed uint64) ([]*scenario.Campaign, error) {
	out := make([]*scenario.Campaign, 0, len(files))
	for _, f := range files {
		c, err := scenario.LoadFile(f.path)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", f.path, err)
		}
		s := deriveSeed(seed, c.Name)
		c.Seed = &s
		for _, sp := range c.Scenarios {
			if sp.Seed != nil {
				sp.Seed = &s
			}
		}
		if f.reps > 0 {
			c.Reps = f.reps
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("%s with derived seed: %w", f.path, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// reference runs the campaigns once on one worker without trace cohorts,
// through a memory store, and returns their artifacts plus, per executed
// cell, its op and replica count. Every cell result is checked.
func (r *run) reference(cs []*scenario.Campaign) (map[string][]byte, map[string]cellInfo, error) {
	arts := map[string][]byte{}
	infos := map[string]cellInfo{}
	for _, c := range cs {
		mem := store.NewMemory()
		var hashes []string
		runner := scenario.Runner{
			Cache:          scenario.NewCellCacheStore(mem, 0),
			Workers:        1,
			DisableCohorts: true,
			OnEvent:        func(ev scenario.CellEvent) { hashes = append(hashes, ev.Hash) },
		}
		rep, err := runner.Run(c)
		if err != nil {
			return nil, nil, fmt.Errorf("reference run of %s: %w", c.Name, err)
		}
		if err := collectEntries(mem, hashes, infos); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		if err := artifactCSVs(c.Name, rep.Artifacts, arts); err != nil {
			return nil, nil, err
		}
	}
	return arts, infos, nil
}

// runCampaigns executes the campaigns in order, each on a cold in-memory
// cache, and returns the summed wall time and the rendered artifacts.
// When traced is set, the run records its spans and counters.
func (r *run) runCampaigns(cs []*scenario.Campaign, infos map[string]cellInfo, traced bool) (float64, map[string][]byte, error) {
	arts := map[string][]byte{}
	wall := 0.0
	if traced {
		r.tr.beginRep()
	}
	for _, c := range cs {
		runner := scenario.Runner{Cache: scenario.NewCellCache("", 0), Workers: r.workers}
		var root, planEnd, lastEvent int64
		if traced {
			root = r.tr.newID()
			runner.OnPlan = func(scenario.Plan) { planEnd = r.tr.now() }
			runner.OnEvent = func(ev scenario.CellEvent) {
				lastEvent = r.tr.now()
				if ev.Cached {
					return
				}
				info := infos[ev.Hash]
				r.tr.record(Span{Name: "scenario.cell", Tag: info.op, Parent: root,
					Start: lastEvent - int64(ev.Elapsed), End: lastEvent, N: info.replicas})
			}
		}
		start := time.Now()
		rep, err := runner.Run(c)
		elapsed := time.Since(start)
		if err != nil {
			return 0, nil, fmt.Errorf("run %s: %w", c.Name, err)
		}
		wall += elapsed.Seconds()
		if traced {
			end := r.tr.at(start.Add(elapsed))
			begin := r.tr.at(start)
			r.tr.record(Span{ID: root, Name: "campaign", Tag: c.Name, Start: begin, End: end})
			r.tr.record(Span{Name: "scenario.plan", Parent: root, Start: begin, End: planEnd})
			r.tr.record(Span{Name: "scenario.assemble", Parent: root, Start: lastEvent, End: end})
			r.countReport(rep)
			r.countCache(runner.Cache.Stats())
		}
		if err := artifactCSVs(c.Name, rep.Artifacts, arts); err != nil {
			return 0, nil, err
		}
	}
	if traced {
		r.tr.endRep()
	}
	return wall, arts, nil
}

// countReport adds a campaign report's counters to the traced repetition.
func (r *run) countReport(rep *scenario.Report) {
	r.tr.count("scenario.cells_unique", float64(rep.Unique))
	r.tr.count("scenario.cells_executed", float64(rep.Executed))
	r.tr.count("sim.arenas_built", float64(rep.Cohorts))
	r.tr.count("sim.cohort_cells", float64(rep.CohortCells))
	r.tr.count("sim.adaptive_cells", float64(rep.AdaptiveCells))
	r.tr.count("sim.adaptive_replicas_used", float64(rep.AdaptiveReplicasUsed))
	r.tr.count("sim.adaptive_replicas_cap", float64(rep.AdaptiveReplicasCap))
}

// countCache adds cache-tier counters (a delta or a fresh cache's totals).
func (r *run) countCache(st scenario.CacheStats) {
	r.tr.count("cache.mem_hits", float64(st.MemHits))
	r.tr.count("cache.disk_hits", float64(st.DiskHits))
	r.tr.count("cache.executed", float64(st.Executed))
	r.tr.count("cache.coalesced", float64(st.Coalesced))
	r.tr.count("cache.corrupt_entries", float64(st.CorruptEntries))
}

// countReplicas records, per simulation family, the replicas of the
// given executed cells.
func (r *run) countReplicas(infos map[string]cellInfo) {
	for _, info := range infos {
		for _, f := range simFamilies {
			if info.op == f.op {
				r.tr.count("sim.replicas."+f.family, float64(info.replicas))
			}
		}
	}
}

// campaignWorkload runs campaign_paired or campaign_companion: closed
// loop, in-process, repeated until the measured window has passed.
// Untraced, it reports the median set-up and campaign times; traced, it
// alternates untraced and traced repetitions so the trace overhead is
// measured on the same machine state.
func (r *run) campaignWorkload() error {
	files := campaignSets[r.workload]
	cs, err := loadCampaigns(files, r.seed)
	if err != nil {
		return err
	}
	want, infos, err := r.reference(cs)
	if err != nil {
		r.attempted++
		r.fail("%v", err)
		return nil
	}
	var setups, plain, traced []float64
	start := time.Now()
	for i := 0; ; i++ {
		if r.windowFull(start, i) {
			break
		}
		t0 := time.Now()
		cs, err := loadCampaigns(files, r.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		tracedRep := r.trace && i%2 == 1
		wall, got, err := r.runCampaigns(cs, infos, tracedRep)
		r.attempted++
		if err != nil {
			r.fail("%v", err)
			continue
		}
		if d := diffArtifacts(want, got); d != "" {
			r.fail("repetition %d: %s", i, d)
			continue
		}
		if tracedRep {
			r.countReplicas(infos)
			traced = append(traced, wall)
		} else {
			plain = append(plain, wall)
		}
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["campaign_s"] = median(plain)
	r.note("campaign_s over %d repetitions; setup_s over %d", len(plain), len(setups))
	if r.trace {
		r.tr.set("harness.trace_overhead_frac", ratio(median(traced), median(plain))-1)
	}
	return nil
}
