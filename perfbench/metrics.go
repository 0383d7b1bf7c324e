package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. For end-to-end metrics,
// workloads lists where the metric is measured; per-layer metrics are
// reported on every workload (zero where the layer is bypassed, which is
// itself the prediction for that workload).
type metricDef struct {
	name      string
	unit      string
	better    string
	bound     float64 // end-to-end only
	workloads []string
}

const (
	wlPaired    = "campaign_paired"
	wlCompanion = "campaign_companion"
	wlServe     = "serve_open_loop"
	wlFleet     = "fleet_campaign"
)

var allWorkloads = []string{wlPaired, wlCompanion, wlServe, wlFleet}

// gatedWorkloads are the workloads BENCHMARK.json declares. serve_open_loop
// runs and traces like the others but is not gated: its latency tails
// follow the host's scheduling stalls (see README.md).
var gatedWorkloads = []string{wlPaired, wlCompanion, wlFleet}

var campaignWorkloads = []string{wlPaired, wlCompanion, wlFleet}

// endToEnd lists the untraced metrics; a zero bound marks a metric of
// the ungated serving workload. fail_frac is printed in the
// human-readable report but is not a metric: it is 0 on every correct
// run, any failure already makes the run exit nonzero, and the result
// line carries attempted/failed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, allWorkloads},
	{"campaign_s", "s", "lower", 0.25, campaignWorkloads},
	{"peak_rss_mb", "MiB", "lower", 0.2, allWorkloads},
	{"hot_p50_ms", "ms", "lower", 0, []string{wlServe}},
	{"hot_p99_ms", "ms", "lower", 0, []string{wlServe}},
	{"warm_p50_ms", "ms", "lower", 0, []string{wlServe}},
	{"warm_p99_ms", "ms", "lower", 0, []string{wlServe}},
	{"cold_p50_ms", "ms", "lower", 0, []string{wlServe}},
	{"cold_p99_ms", "ms", "lower", 0, []string{wlServe}},
}

// execOps are the cell operations whose execution time is broken out.
var execOps = []string{"model", "periods", "scaling", "sim", "silent_model", "silent_sim", "ml_model", "ml_sim"}

// simFamilies maps a replica-walker family to the cell op that runs it.
var simFamilies = []struct{ family, op string }{
	{"periodic", "sim"}, {"silent", "silent_sim"}, {"ml", "ml_sim"},
}

// perLayer lists the traced metrics, grouped by layer.
var perLayer = func() []metricDef {
	m := []metricDef{
		{name: "scenario.plan_s", unit: "s", better: "lower"},
		{name: "scenario.assemble_s", unit: "s", better: "lower"},
		{name: "scenario.cells_unique", unit: "count", better: "lower"},
		{name: "scenario.cells_executed", unit: "count", better: "lower"},
	}
	for _, op := range execOps {
		m = append(m, metricDef{name: "scenario.exec_s." + op, unit: "s", better: "lower"})
	}
	m = append(m,
		metricDef{name: "scenario.exec_max_s", unit: "s", better: "lower"},
		metricDef{name: "sim.replicas", unit: "count", better: "lower"},
	)
	for _, f := range simFamilies {
		m = append(m, metricDef{name: "sim.ns_per_replica." + f.family, unit: "ns", better: "lower"})
	}
	m = append(m, []metricDef{
		{name: "sim.arenas_built", unit: "count", better: "lower"},
		{name: "sim.cohort_cells", unit: "count", better: "higher"},
		{name: "sim.adaptive_cells", unit: "count", better: "higher"},
		{name: "sim.adaptive_replicas_used", unit: "count", better: "lower"},
		{name: "sim.adaptive_replicas_cap", unit: "count", better: "lower"},
		{name: "sim.adaptive_useful_frac", unit: "ratio", better: "lower"},
		{name: "cache.mem_hits", unit: "count", better: "higher"},
		{name: "cache.disk_hits", unit: "count", better: "higher"},
		{name: "cache.executed", unit: "count", better: "lower"},
		{name: "cache.coalesced", unit: "count", better: "higher"},
		{name: "cache.corrupt_entries", unit: "count", better: "lower"},
		{name: "cache.hit_frac", unit: "ratio", better: "higher"},
		{name: "store.get_n", unit: "count", better: "lower"},
		{name: "store.get_p50_us", unit: "us", better: "lower"},
		{name: "store.get_p99_us", unit: "us", better: "lower"},
		{name: "store.put_n", unit: "count", better: "lower"},
		{name: "store.put_p50_us", unit: "us", better: "lower"},
		{name: "store.put_p99_us", unit: "us", better: "lower"},
		{name: "store.put_bytes", unit: "B", better: "lower"},
		{name: "store.put_batch_mean", unit: "count", better: "higher"},
		{name: "server.handler_p50_ms.cells", unit: "ms", better: "lower"},
		{name: "server.handler_p99_ms.cells", unit: "ms", better: "lower"},
		{name: "server.queue_wait_p50_ms", unit: "ms", better: "lower"},
		{name: "server.rejected_n", unit: "count", better: "lower"},
		{name: "server.client_gap_p50_ms", unit: "ms", better: "lower"},
		{name: "server.shards_n", unit: "count", better: "lower"},
		{name: "server.cells_per_shard", unit: "count", better: "higher"},
		{name: "server.shard_rtt_p50_ms", unit: "ms", better: "lower"},
		{name: "server.shard_rtt_p99_ms", unit: "ms", better: "lower"},
		{name: "server.shard_service_s", unit: "s", better: "lower"},
		{name: "server.shard_overhead_s", unit: "s", better: "lower"},
		{name: "server.shard_req_bytes", unit: "B", better: "lower"},
		{name: "server.shard_resp_bytes", unit: "B", better: "lower"},
		{name: "server.shard_errors_n", unit: "count", better: "lower"},
		{name: "server.breaker_opens_n", unit: "count", better: "lower"},
		{name: "server.fleet_overhead_s", unit: "s", better: "lower"},
		{name: "harness.gen_lag_p99_ms", unit: "ms", better: "lower"},
		{name: "harness.trace_overhead_frac", unit: "ratio", better: "lower"},
	}...)
	return m
}()

// endToEndFor returns the end-to-end metrics measured on a workload.
func endToEndFor(workload string) []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		for _, w := range m.workloads {
			if w == workload {
				out = append(out, m)
			}
		}
	}
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the samples at or below it.
// It returns 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value (mean of the two middle values for an even
// count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples lie strictly beyond the nearest-rank
// p-th percentile; a reported p99 needs at least ten.
func tailSamples(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
