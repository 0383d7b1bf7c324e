package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"abftckpt/internal/scenario"
	"abftckpt/internal/server"
)

// fleetWorkers is the number of worker servers behind the coordinator.
const fleetWorkers = 2

// pollInterval is how often the client polls a running job.
const pollInterval = 5 * time.Millisecond

// fleet is a coordinator and its workers, all in-process on loopback.
type fleet struct {
	coord   *liveServer
	workers []*liveServer
	cache   *scenario.CellCache
}

func (f *fleet) stop() {
	f.coord.stop()
	for _, w := range f.workers {
		w.stop()
	}
	f.cache.Close()
}

// startFleet starts the workers (memory-only caches) and a coordinator
// over a batched checksummed disk store in dir. When tracing, worker
// handlers and the coordinator's shard transport record spans.
func (r *run) startFleet(dir string) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for k := 0; k < fleetWorkers; k++ {
		var wrap func(http.Handler) http.Handler
		if r.tr != nil {
			wrap = func(h http.Handler) http.Handler { return traceHandler(r.tr, "worker.handler", h) }
		}
		ls, err := startServer(server.Config{Workers: 1}, wrap)
		if err != nil {
			for _, w := range f.workers {
				w.stop()
			}
			return nil, err
		}
		f.workers = append(f.workers, ls)
		urls = append(urls, ls.url)
	}
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: r.workers, MaxIdleConnsPerHost: r.workers, DisableCompression: true}
	if r.tr != nil {
		rt = &traceTransport{t: r.tr, name: "shard.rtt", base: rt}
	}
	f.cache = scenario.NewCellCacheStore(r.storeStack(dir), 0)
	coord, err := startServer(server.Config{
		Cache:       f.cache,
		Workers:     r.workers,
		WorkerURLs:  urls,
		ShardClient: &http.Client{Transport: rt, Timeout: server.DefaultShardTimeout},
	}, nil)
	if err != nil {
		for _, w := range f.workers {
			w.stop()
		}
		f.cache.Close()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

// jobView is the part of the job status the client reads.
type jobView struct {
	State string `json:"state"`
	Error string `json:"error"`
	Cells struct {
		Total    int `json:"total"`
		Executed int `json:"executed"`
	} `json:"cells"`
	Artifacts []struct {
		Name string `json:"name"`
		URL  string `json:"url"`
	} `json:"artifacts"`
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// runJob submits the campaign, polls the job to done and downloads every
// artifact. It returns the wall time from submit to the last artifact.
func runJob(client *http.Client, base, campaign string, body []byte) (float64, map[string][]byte, jobView, error) {
	var job jobView
	start := time.Now()
	resp, err := client.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, job, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return 0, nil, job, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	for {
		if err := getJSON(client, base+"/v1/jobs/"+sub.ID, &job); err != nil {
			return 0, nil, job, err
		}
		if job.State == "done" {
			break
		}
		if job.State == "failed" {
			return 0, nil, job, fmt.Errorf("job failed: %s", job.Error)
		}
		time.Sleep(pollInterval)
	}
	arts := map[string][]byte{}
	for _, a := range job.Artifacts {
		resp, err := client.Get(base + a.URL)
		if err != nil {
			return 0, nil, job, err
		}
		csv, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, job, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, nil, job, fmt.Errorf("artifact %s: status %d", a.Name, resp.StatusCode)
		}
		arts[campaign+"/"+a.Name] = csv
	}
	return time.Since(start).Seconds(), arts, job, nil
}

// fleetWorkload runs fleet_campaign: paper.json as a coordinator job over
// two workers, closed loop, on a fresh fleet and store per repetition.
// Set-up (load the campaign, start the fleet) is timed every repetition.
func (r *run) fleetWorkload() error {
	files := campaignSets[wlFleet]
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
	client := newClient(1)
	defer client.CloseIdleConnections()

	var setups, plain, tracedWalls []float64
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
		c := cs[0]
		body, err := json.Marshal(c)
		if err != nil {
			return err
		}
		fl, err := r.startFleet(filepath.Join(r.work, "fleet"+strconv.Itoa(i)))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())

		traced := r.trace && i%2 == 1
		if traced {
			r.tr.beginRep()
		}
		wall, got, job, err := runJob(client, fl.coord.url, c.Name, body)
		if traced {
			r.tr.endRep()
		}
		r.attempted++
		var countErr error
		if err == nil {
			if d := diffArtifacts(want, got); d != "" {
				err = fmt.Errorf("%s", d)
			}
		}
		switch {
		case err != nil:
			r.fail("repetition %d: %v", i, err)
		case traced:
			tracedWalls = append(tracedWalls, wall)
			countErr = r.countFleet(client, fl, job, infos)
		default:
			plain = append(plain, wall)
		}
		fl.stop()
		if countErr != nil {
			return countErr
		}
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["campaign_s"] = median(plain)
	r.note("campaign_s over %d repetitions; setup_s over %d", len(plain), len(setups))
	if r.trace {
		single, err := r.singleNode(cs[0])
		if err != nil {
			return err
		}
		r.tr.set("server.fleet_overhead_s", median(plain)-single)
		r.tr.set("harness.trace_overhead_frac", ratio(median(tracedWalls), median(plain))-1)
	}
	return nil
}

// countFleet records a traced fleet repetition's counters: the job's cell
// counts, the coordinator's cache and /v1/stats worker counters.
func (r *run) countFleet(client *http.Client, fl *fleet, job jobView, infos map[string]cellInfo) error {
	var stats struct {
		Cohorts  server.CohortStats   `json:"cohorts"`
		Adaptive server.AdaptiveStats `json:"adaptive"`
		Server   server.ServerStats   `json:"server"`
	}
	if err := getJSON(client, fl.coord.url+"/v1/stats", &stats); err != nil {
		return err
	}
	r.tr.count("scenario.cells_unique", float64(job.Cells.Total))
	r.tr.count("scenario.cells_executed", float64(job.Cells.Executed))
	r.tr.count("sim.arenas_built", float64(stats.Cohorts.Built))
	r.tr.count("sim.cohort_cells", float64(stats.Cohorts.ReplayedCells))
	r.tr.count("sim.adaptive_cells", float64(stats.Adaptive.Cells))
	r.tr.count("sim.adaptive_replicas_used", float64(stats.Adaptive.ReplicasUsed))
	r.tr.count("sim.adaptive_replicas_cap", float64(stats.Adaptive.ReplicasCap))
	r.countCache(fl.cache.Stats())
	r.countReplicas(infos)
	for _, w := range stats.Server.Workers {
		r.tr.count("server.worker_shards", float64(w.Shards))
		r.tr.count("server.worker_cells", float64(w.Cells))
		r.tr.count("server.worker_errors", float64(w.Errors))
		r.tr.count("server.breaker_opens_n", float64(w.BreakerOpens))
	}
	return nil
}

// singleNode is the median wall time of the campaign run in-process on
// this node with a cold memory cache: the fleet's no-dispatch baseline.
func (r *run) singleNode(c *scenario.Campaign) (float64, error) {
	var walls []float64
	for k := 0; k < 3; k++ {
		runner := scenario.Runner{Cache: scenario.NewCellCache("", 0), Workers: r.workers}
		t0 := time.Now()
		if _, err := runner.Run(c); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), nil
}
