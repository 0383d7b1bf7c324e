package main

// layerMetrics turns a trace file into the per-layer metrics. Every
// metric is present; a layer the workload bypasses reads 0. Counts and
// per-repetition sums are medians over the traced repetitions; latency
// percentiles pool the spans of all of them.
func layerMetrics(tf *traceFile) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	nreps := len(tf.Reps)
	if nreps == 0 {
		nreps = 1
	}
	// perRep is the median over repetitions of f applied to each one's
	// spans.
	byRep := make([][]Span, nreps)
	for _, s := range tf.Spans {
		if s.Rep >= 0 && s.Rep < nreps {
			byRep[s.Rep] = append(byRep[s.Rep], s)
		}
	}
	perRep := func(f func(spans []Span) float64) float64 {
		vals := make([]float64, nreps)
		for i := range byRep {
			vals[i] = f(byRep[i])
		}
		return median(vals)
	}
	counter := func(name string) float64 {
		vals := make([]float64, len(tf.Reps))
		for i, c := range tf.Reps {
			vals[i] = c[name]
		}
		return median(vals)
	}
	sumSpans := func(name, tag string, val func(Span) float64) func([]Span) float64 {
		return func(spans []Span) float64 {
			t := 0.0
			for _, s := range spans {
				if s.Name == name && (tag == "" || s.Tag == tag) {
					t += val(s)
				}
			}
			return t
		}
	}
	durations := func(name, tag string, scale float64) []float64 {
		var out []float64
		for _, s := range tf.Spans {
			if s.Name == name && (tag == "" || s.Tag == tag) {
				out = append(out, float64(s.End-s.Start)/scale)
			}
		}
		return out
	}
	secs := func(s Span) float64 { return s.seconds() }
	one := func(Span) float64 { return 1 }

	for _, d := range perLayer {
		for _, c := range tf.Reps {
			if _, ok := c[d.name]; ok {
				m[d.name] = counter(d.name)
				break
			}
		}
	}
	for name, v := range tf.Run {
		if _, ok := m[name]; ok {
			m[name] = v
		}
	}

	// scenario
	m["scenario.plan_s"] = perRep(sumSpans("scenario.plan", "", secs))
	m["scenario.assemble_s"] = perRep(sumSpans("scenario.assemble", "", secs))
	for _, op := range execOps {
		m["scenario.exec_s."+op] = perRep(sumSpans("scenario.cell", op, secs))
	}
	m["scenario.exec_max_s"] = perRep(func(spans []Span) float64 {
		mx := 0.0
		for _, s := range spans {
			if s.Name == "scenario.cell" && s.seconds() > mx {
				mx = s.seconds()
			}
		}
		return mx
	})

	// sim
	total := 0.0
	for _, f := range simFamilies {
		reps := counter("sim.replicas." + f.family)
		total += reps
		m["sim.ns_per_replica."+f.family] = ratio(m["scenario.exec_s."+f.op]*1e9, reps)
	}
	m["sim.replicas"] = total
	m["sim.adaptive_useful_frac"] = ratio(m["sim.adaptive_replicas_used"], m["sim.adaptive_replicas_cap"])

	// cache
	hits := m["cache.mem_hits"] + m["cache.disk_hits"] + m["cache.coalesced"]
	m["cache.hit_frac"] = ratio(hits, hits+m["cache.executed"])

	// store: the outer decorator sees the cache's calls; the inner one,
	// under the write batcher, sees the committed batches.
	m["store.get_n"] = perRep(sumSpans("store.get", "", one))
	m["store.get_p50_us"] = percentile(durations("store.get", "", 1e3), 50)
	m["store.get_p99_us"] = percentile(durations("store.get", "", 1e3), 99)
	m["store.put_n"] = perRep(sumSpans("store.put", "", one))
	m["store.put_p50_us"] = percentile(durations("store.put", "", 1e3), 50)
	m["store.put_p99_us"] = percentile(durations("store.put", "", 1e3), 99)
	m["store.put_bytes"] = perRep(sumSpans("store.put", "", func(s Span) float64 { return float64(s.N) }))
	batches, items := 0.0, 0.0
	for _, s := range tf.Spans {
		if s.Name == "disk.put_batch" {
			batches++
			items += float64(s.M)
		}
	}
	m["store.put_batch_mean"] = ratio(items, batches)

	// server: request handlers
	m["server.handler_p50_ms.cells"] = percentile(durations("server.handler", "/v1/cells", 1e6), 50)
	m["server.handler_p99_ms.cells"] = percentile(durations("server.handler", "/v1/cells", 1e6), 99)
	m["server.rejected_n"] = perRep(func(spans []Span) float64 {
		n := 0.0
		for _, s := range spans {
			if (s.Name == "server.handler" || s.Name == "worker.handler") && s.Status == 429 {
				n++
			}
		}
		return n
	})
	handlerByParent := map[int64]Span{}
	for _, s := range tf.Spans {
		if (s.Name == "server.handler" || s.Name == "worker.handler") && s.Parent != 0 {
			handlerByParent[s.Parent] = s
		}
	}
	var gaps []float64
	for _, s := range tf.Spans {
		if s.Name == "client.request" {
			if h, ok := handlerByParent[s.ID]; ok {
				gaps = append(gaps, s.ms()-h.ms())
			}
		}
	}
	m["server.client_gap_p50_ms"] = percentile(gaps, 50)

	// server: coordinator and shards
	m["server.shards_n"] = perRep(sumSpans("shard.rtt", "", one))
	m["server.cells_per_shard"] = ratio(counter("server.worker_cells"), counter("server.worker_shards"))
	m["server.shard_rtt_p50_ms"] = percentile(durations("shard.rtt", "", 1e6), 50)
	m["server.shard_rtt_p99_ms"] = percentile(durations("shard.rtt", "", 1e6), 99)
	m["server.shard_service_s"] = perRep(sumSpans("worker.handler", "/v1/shards", secs))
	m["server.shard_overhead_s"] = perRep(func(spans []Span) float64 {
		return sumSpans("shard.rtt", "", secs)(spans) - sumSpans("worker.handler", "/v1/shards", secs)(spans)
	})
	m["server.shard_req_bytes"] = perRep(sumSpans("shard.rtt", "", func(s Span) float64 { return float64(s.N) }))
	m["server.shard_resp_bytes"] = perRep(sumSpans("shard.rtt", "", func(s Span) float64 { return float64(s.M) }))
	m["server.shard_errors_n"] = counter("server.worker_errors") + perRep(func(spans []Span) float64 {
		n := 0.0
		for _, s := range spans {
			if s.Name == "shard.rtt" && s.Status != 200 {
				n++
			}
		}
		return n
	})
	return m
}
