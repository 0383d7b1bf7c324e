// Command ftload replays an open-loop traffic mix against a live ftserve
// instance and reports latency percentiles and error/429 rates as JSON —
// the serving-path analogue of the ftbench sim-path harness.
//
// Open loop means requests are fired on a fixed schedule (-rate) no
// matter how fast the server answers, so queueing delay shows up in the
// measured latencies instead of silently throttling the generator. Each
// latency runs from the request's due time, not its send, so a generator
// that falls behind its schedule still counts the delay.
//
// Traffic classes (weighted by -mix):
//
//	hot       POST /v1/cells, one fixed cell — memory-tier hits after warmup
//	cold      POST /v1/cells, a fresh cell every time — full execution path
//	campaign  POST /v1/campaigns with the -campaign spec (dedup makes
//	          repeats cheap; 202 and 429 both count as outcomes)
//	artifact  GET a finished artifact CSV (the spec is run once up front)
//	stats     GET /v1/stats
//
// Examples:
//
//	ftload -target http://127.0.0.1:8080 -duration 10s -rate 200
//	ftload -target http://127.0.0.1:8080 -mix hot=8,cold=2 \
//	    -max-error-rate 0.01 -max-p99-ms 250 -o ftload.json
//
// With -max-error-rate / -max-p99-ms set, ftload exits nonzero when the
// SLO is violated, so CI can gate serving-path regressions the way the
// ftbench compare gate guards the simulation path.
//
// With -chaos, the generator's own HTTP transport is wrapped in the
// seeded fault injector (internal/chaos): dropped connections, injected
// 5xx/429 bursts, delays, truncated and bit-flipped response bodies. The
// fault schedule is a pure function of -chaos-seed, so a flaky run
// reproduces bit-identically:
//
//	ftload -target http://127.0.0.1:8080 -duration 5s \
//	    -chaos err=0.05,status500=0.02,truncate=0.01 -chaos-seed 42
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"abftckpt/internal/chaos"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// hotCellBody is the fixed cell of the "hot" class: cheap, analytic, and
// identical across requests so it settles into the memory tier.
const hotCellBody = `{"op": "periods", "probe": {"c": 60, "mu": 3600, "d": 60, "r": 60}}`

// defaultCampaign is posted when no -campaign file is given: one analytic
// scenario, emitting the "periods" artifact the artifact class fetches.
const defaultCampaign = `{"name": "ftload", "scenarios": [{"name": "periods", "kind": "periods"}]}`

// sample is one completed request.
type sample struct {
	class      string
	status     int
	durationMS float64
	failed     bool // transport-level failure (no status)
}

// Report is the JSON output: flat overall numbers plus one row per
// traffic class.
type Report struct {
	Target      string    `json:"target"`
	Timestamp   time.Time `json:"timestamp"`
	DurationSec float64   `json:"duration_sec"`
	TargetRate  float64   `json:"target_rate_rps"`
	AchievedRPS float64   `json:"achieved_rps"`
	Mix         string    `json:"mix"`

	Sent      int64   `json:"sent"`
	Completed int64   `json:"completed"`
	Errors    int64   `json:"errors"`
	Rejected  int64   `json:"rejected"`
	ErrorRate float64 `json:"error_rate"`
	// RejectRate is the fraction of completed requests shed with 429 —
	// expected to be nonzero when driving the server past its admission
	// bounds, and reported separately from errors for exactly that reason.
	RejectRate float64 `json:"reject_rate"`

	AvgMS float64 `json:"avg_ms"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`

	Classes []ClassReport `json:"classes"`

	// Chaos is present when -chaos is set: the fault spec, the seed that
	// replays the schedule, and what the injector actually did.
	Chaos *ChaosReport `json:"chaos,omitempty"`
}

// ChaosReport records the injected-fault configuration and outcomes so a
// run can be reproduced (-chaos <spec> -chaos-seed <seed>) and its error
// rate interpreted against the injection rates.
type ChaosReport struct {
	Spec       string `json:"spec"`
	Seed       int64  `json:"seed"`
	Requests   int64  `json:"requests"`
	Drops      int64  `json:"drops"`
	Status500  int64  `json:"status_500"`
	Status429  int64  `json:"status_429"`
	Truncated  int64  `json:"truncated"`
	Corrupted  int64  `json:"corrupted"`
	Partitions int64  `json:"partitioned"`
}

// ClassReport aggregates one traffic class.
type ClassReport struct {
	Class      string  `json:"class"`
	Sent       int64   `json:"sent"`
	Errors     int64   `json:"errors"`
	Rejected   int64   `json:"rejected"`
	ErrorRate  float64 `json:"error_rate"`
	RejectRate float64 `json:"reject_rate"`
	AvgMS      float64 `json:"avg_ms"`
	P50MS      float64 `json:"p50_ms"`
	P90MS      float64 `json:"p90_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "http://127.0.0.1:8080", "base URL of the ftserve instance")
	duration := fs.Duration("duration", 10*time.Second, "open-loop run time")
	rate := fs.Float64("rate", 100, "target request rate (requests/second, open loop)")
	mix := fs.String("mix", "hot=6,cold=2,stats=1,artifact=1", "traffic mix as class=weight pairs (hot, cold, campaign, artifact, stats)")
	campaignPath := fs.String("campaign", "", "campaign JSON for the campaign/artifact classes (default: a tiny built-in spec)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	seed := fs.Int64("seed", 1, "seed for class picking and cold-cell identities")
	chaosSpec := fs.String("chaos", "", "inject client-side faults, e.g. err=0.05,status500=0.02,delay=5ms,truncate=0.01 (see internal/chaos)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the -chaos fault schedule (same seed+spec replays bit-identically)")
	outPath := fs.String("o", "", "also write the JSON report to this path")
	maxErrRate := fs.Float64("max-error-rate", -1, "SLO: exit nonzero when the error rate exceeds this fraction (negative: off)")
	maxP99 := fs.Float64("max-p99-ms", -1, "SLO: exit nonzero when the overall p99 exceeds this many ms (negative: off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ftload: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *rate <= 0 || *duration <= 0 {
		fmt.Fprintln(stderr, "ftload: -rate and -duration must be positive")
		return 2
	}
	weights, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(stderr, "ftload:", err)
		return 2
	}
	campaign := []byte(defaultCampaign)
	if *campaignPath != "" {
		if campaign, err = os.ReadFile(*campaignPath); err != nil {
			fmt.Fprintln(stderr, "ftload:", err)
			return 2
		}
	}

	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 256, MaxConnsPerHost: 0}
	var chaosRT *chaos.Transport
	if *chaosSpec != "" {
		faults, err := chaos.ParseFaults(*chaosSpec, *chaosSeed)
		if err != nil {
			fmt.Fprintln(stderr, "ftload:", err)
			return 2
		}
		chaosRT = chaos.NewTransport(rt, faults)
		rt = chaosRT
	}
	client := &http.Client{
		Timeout: *timeout,
		// The generator holds many concurrent requests to one host; the
		// default idle-connection cap of 2 would thrash ephemeral ports.
		// Under -chaos the transport additionally injects seeded faults.
		Transport: rt,
	}
	g := &generator{
		client:   client,
		base:     strings.TrimRight(*target, "/"),
		campaign: campaign,
		seed:     *seed,
	}

	// The artifact class needs a finished job to fetch from: run the
	// campaign once, synchronously, before the clock starts.
	if weights["artifact"] > 0 {
		if err := g.setupArtifact(); err != nil {
			fmt.Fprintln(stderr, "ftload: artifact setup:", err)
			return 1
		}
	}

	report := g.fire(weights, *rate, *duration)
	report.Target = *target
	report.Mix = *mix
	report.Timestamp = time.Now().UTC()
	if chaosRT != nil {
		st := chaosRT.Stats()
		report.Chaos = &ChaosReport{
			Spec: *chaosSpec, Seed: *chaosSeed,
			Requests: st.Requests, Drops: st.Drops,
			Status500: st.Status500, Status429: st.Status429,
			Truncated: st.Truncated, Corrupted: st.Corrupted,
			Partitions: st.Partitioned,
		}
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(report) //nolint:errcheck
	if *outPath != "" {
		data, _ := json.MarshalIndent(report, "", "  ")
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "ftload:", err)
			return 1
		}
	}

	// SLO gate.
	violated := false
	if *maxErrRate >= 0 && report.ErrorRate > *maxErrRate {
		fmt.Fprintf(stderr, "ftload: SLO violated: error rate %.4f > %.4f\n", report.ErrorRate, *maxErrRate)
		violated = true
	}
	if *maxP99 >= 0 && report.P99MS > *maxP99 {
		fmt.Fprintf(stderr, "ftload: SLO violated: p99 %.1f ms > %.1f ms\n", report.P99MS, *maxP99)
		violated = true
	}
	if violated {
		return 1
	}
	return 0
}

// parseMix parses "hot=6,cold=2,…" into class weights.
func parseMix(s string) (map[string]int, error) {
	known := map[string]bool{"hot": true, "cold": true, "campaign": true, "artifact": true, "stats": true}
	weights := map[string]int{}
	total := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q (want class=weight)", part)
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown traffic class %q (hot, cold, campaign, artifact, stats)", name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad weight in %q", part)
		}
		weights[name] = w
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("empty traffic mix %q", s)
	}
	return weights, nil
}

// generator fires the traffic and aggregates samples.
type generator struct {
	client   *http.Client
	base     string
	campaign []byte
	seed     int64

	coldMu      sync.Mutex
	coldCounter int64

	artifactURL string
}

// setupArtifact posts the campaign, polls the job to completion, and
// records the first artifact URL for the artifact class.
func (g *generator) setupArtifact() error {
	resp, err := g.client.Post(g.base+"/v1/campaigns", "application/json", bytes.NewReader(g.campaign))
	if err != nil {
		return err
	}
	var created struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if created.ID == "" {
		return fmt.Errorf("campaign not accepted (status %d)", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st struct {
			State     string `json:"state"`
			Error     string `json:"error"`
			Artifacts []struct {
				URL string `json:"url"`
			} `json:"artifacts"`
		}
		resp, err := g.client.Get(g.base + "/v1/jobs/" + created.ID)
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch st.State {
		case "done":
			if len(st.Artifacts) == 0 {
				return fmt.Errorf("setup job finished with no artifacts")
			}
			g.artifactURL = st.Artifacts[0].URL
			return nil
		case "failed":
			return fmt.Errorf("setup job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("setup job still %s after 2m", st.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fire runs the open loop for the given duration, classes drawn from the
// weighted mix: request i is due at start + i/rate and is sent on its own
// goroutine once due. A generator that falls behind sends its overdue
// requests at once, so every due request goes out: ⌈duration·rate⌉ in all.
func (g *generator) fire(weights map[string]int, rate float64, duration time.Duration) *Report {
	classes := make([]string, 0, len(weights))
	for _, c := range []string{"hot", "cold", "campaign", "artifact", "stats"} {
		for i := 0; i < weights[c]; i++ {
			classes = append(classes, c)
		}
	}
	rng := rand.New(rand.NewSource(g.seed))

	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		all  []sample
		sent int64
	)
	start := time.Now()
	for due := start; due.Sub(start) < duration; due = due.Add(interval) {
		time.Sleep(time.Until(due))
		class := classes[rng.Intn(len(classes))]
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := g.one(class, due)
			mu.Lock()
			all = append(all, s)
			mu.Unlock()
		}()
	}
	// The offered window is the whole duration, or longer when the
	// generator fell behind its schedule.
	elapsed := max(time.Since(start), duration)

	// Drain: in-flight requests are bounded by the client timeout.
	wg.Wait()
	return aggregate(all, sent, elapsed, rate)
}

// one performs a single request of the given class. Its latency runs from
// the request's due time, so a send the generator delayed counts the delay
// too, as queueing in front of the server would.
func (g *generator) one(class string, due time.Time) sample {
	var resp *http.Response
	var err error
	switch class {
	case "hot":
		resp, err = g.client.Post(g.base+"/v1/cells", "application/json", strings.NewReader(hotCellBody))
	case "cold":
		g.coldMu.Lock()
		g.coldCounter++
		n := g.coldCounter
		g.coldMu.Unlock()
		// Each cold cell gets a unique mu, so it can never be a cache hit
		// within one run (seed offsets keep separate runs distinct too).
		body := fmt.Sprintf(`{"op": "periods", "probe": {"c": 60, "mu": %d, "d": 60, "r": 60}}`,
			100000+g.seed*1000000+n)
		resp, err = g.client.Post(g.base+"/v1/cells", "application/json", strings.NewReader(body))
	case "campaign":
		resp, err = g.client.Post(g.base+"/v1/campaigns", "application/json", bytes.NewReader(g.campaign))
	case "artifact":
		resp, err = g.client.Get(g.base + g.artifactURL)
	case "stats":
		resp, err = g.client.Get(g.base + "/v1/stats")
	}
	s := sample{class: class, durationMS: float64(time.Since(due).Microseconds()) / 1000}
	if err != nil {
		s.failed = true
		return s
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	resp.Body.Close()
	s.status = resp.StatusCode
	return s
}

// aggregate folds samples into the report.
func aggregate(all []sample, sent int64, elapsed time.Duration, rate float64) *Report {
	r := &Report{
		Sent:        sent,
		DurationSec: elapsed.Seconds(),
		TargetRate:  rate,
	}
	byClass := map[string][]sample{}
	for _, s := range all {
		byClass[s.class] = append(byClass[s.class], s)
	}
	overall := summarize(all)
	r.Completed = overall.Sent
	r.Errors, r.Rejected = overall.Errors, overall.Rejected
	r.ErrorRate, r.RejectRate = overall.ErrorRate, overall.RejectRate
	r.AvgMS, r.P50MS, r.P90MS, r.P99MS, r.MaxMS = overall.AvgMS, overall.P50MS, overall.P90MS, overall.P99MS, overall.MaxMS
	if r.DurationSec > 0 {
		r.AchievedRPS = float64(r.Completed) / r.DurationSec
	}
	for _, class := range []string{"hot", "cold", "campaign", "artifact", "stats"} {
		ss, ok := byClass[class]
		if !ok {
			continue
		}
		cr := summarize(ss)
		cr.Class = class
		r.Classes = append(r.Classes, cr)
	}
	return r
}

// summarize computes one ClassReport over a set of samples. A 429 is a
// rejection (backpressure working as designed); transport failures and
// 4xx/5xx other than 429 are errors.
func summarize(ss []sample) ClassReport {
	cr := ClassReport{Sent: int64(len(ss))}
	if len(ss) == 0 {
		return cr
	}
	durs := make([]float64, 0, len(ss))
	var sum float64
	for _, s := range ss {
		switch {
		case s.failed:
			cr.Errors++
		case s.status == http.StatusTooManyRequests:
			cr.Rejected++
		case s.status >= 400:
			cr.Errors++
		}
		durs = append(durs, s.durationMS)
		sum += s.durationMS
	}
	sort.Float64s(durs)
	n := len(durs)
	cr.AvgMS = sum / float64(n)
	cr.P50MS = durs[int(0.50*float64(n-1))]
	cr.P90MS = durs[int(0.90*float64(n-1))]
	cr.P99MS = durs[int(0.99*float64(n-1))]
	cr.MaxMS = durs[n-1]
	cr.ErrorRate = float64(cr.Errors) / float64(n)
	cr.RejectRate = float64(cr.Rejected) / float64(n)
	return cr
}
