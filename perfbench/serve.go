package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"abftckpt/internal/model"
	"abftckpt/internal/scenario"
	"abftckpt/internal/server"
	"abftckpt/internal/store"
)

// Serving workload shape. The memory tier holds memCells results; the
// warm set is several times larger, so warm requests are store reads.
const (
	hotCells  = 8
	warmCells = 512
	memCells  = 64
	// refRate is the reference offered rate (requests/s) at which the
	// latency metrics are measured.
	refRate = 400
	// verifyEvery: about one request in verifyEvery has its served result
	// recomputed locally and compared byte for byte.
	verifyEvery = 16
	// cellReps is the replica count of every served cell.
	cellReps = 100
	// serveSetups is how many times set-up runs; setup_s is their median.
	serveSetups = 5
	// lagGrowthMS is how much later the last quarter of a phase may run
	// than its first quarter (median send lag) before the lag counts as
	// growing.
	lagGrowthMS = 10
)

var classes = []string{"hot", "warm", "cold"}

// request is one scheduled arrival.
type request struct {
	due   time.Duration // offset from the phase start
	class string
	spec  scenario.CellSpec
	body  []byte
	check bool // recompute and compare the served result
}

// fig7Cell is a Figure 7 simulation cell at grid point (i, j) of the
// 19 x 21 MTBF x alpha grid.
func fig7Cell(proto string, i, j int, seed uint64) scenario.CellSpec {
	mu := (60 + 10*float64(i)) * model.Minute
	alpha := float64(j) / 20
	p := model.Fig7Params(mu, alpha)
	return scenario.CellSpec{Op: scenario.OpSim, Protocol: proto, Params: &p, Reps: cellReps, Seed: seed}
}

// cellSet draws n distinct-seed Figure 7 cells for a label.
func cellSet(seed uint64, label string, n int) []scenario.CellSpec {
	s := deriveSeed(seed, label)
	rng := rand.New(rand.NewPCG(s, splitmix64(s)))
	protos := []string{"pure", "bi", "abft"}
	out := make([]scenario.CellSpec, n)
	for k := range out {
		out[k] = fig7Cell(protos[rng.IntN(3)], rng.IntN(19), rng.IntN(21), rng.Uint64())
	}
	return out
}

// makeSchedule pre-generates one phase: Poisson arrivals at rate for dur,
// conditioned on exactly rate*dur arrivals (sorted uniform times), so the
// offered load is the same for every seed; classes in equal shares, hot
// and warm cells drawn uniformly from their sets and a fresh-seed cell
// for every cold request. It is a pure function of its arguments.
func makeSchedule(seed uint64, phase string, rate float64, dur time.Duration, hot, warm []scenario.CellSpec) ([]request, error) {
	s := deriveSeed(seed, "schedule/"+phase)
	rng := rand.New(rand.NewPCG(s, splitmix64(s)))
	dues := make([]time.Duration, int(rate*dur.Seconds()))
	for i := range dues {
		dues[i] = time.Duration(rng.Int64N(int64(dur)))
	}
	slices.Sort(dues)
	out := make([]request, 0, len(dues))
	for _, due := range dues {
		q := request{due: due, class: classes[rng.IntN(len(classes))], check: rng.IntN(verifyEvery) == 0}
		switch q.class {
		case "hot":
			q.spec = hot[rng.IntN(len(hot))]
		case "warm":
			q.spec = warm[rng.IntN(len(warm))]
		default:
			q.spec = fig7Cell([]string{"pure", "bi", "abft"}[rng.IntN(3)], rng.IntN(19), rng.IntN(21), rng.Uint64())
		}
		body, err := json.Marshal(q.spec)
		if err != nil {
			return nil, err
		}
		q.body = body
		out = append(out, q)
	}
	return out, nil
}

// outcome is what the client observed for one request.
type outcome struct {
	issue, done time.Duration // offsets from the phase start
	status      int
	err         error
	body        []byte
}

// liveServer is an in-process server on a loopback listener.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer(cfg server.Config, wrap func(http.Handler) http.Handler) (*liveServer, error) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return ls, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ls.hs.Shutdown(ctx); err != nil {
		ls.hs.Close()
	}
	<-ls.done
}

// newClient returns a client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
}

// storeStack builds the serving store: a checksummed disk store behind
// the write batcher. When tracing, one decorator times the calls the
// cache makes and one under the batcher sees each committed batch.
func (r *run) storeStack(dir string) store.ResultStore {
	var disk store.ResultStore = store.NewDisk(dir)
	if r.tr != nil {
		disk = &timingStore{inner: disk, t: r.tr, layer: "disk"}
	}
	var rs store.ResultStore = store.WithChecksum(store.NewBatcher(disk, 0, 0))
	if r.tr != nil {
		rs = &timingStore{inner: rs, t: r.tr, layer: "store"}
	}
	return rs
}

// serveEnv is one set-up of the serving workload.
type serveEnv struct {
	cache *scenario.CellCache
	ls    *liveServer
}

func (e *serveEnv) close() {
	e.ls.stop()
	e.cache.Close()
}

// setupServe builds the serving stack in dir: the warm set written to
// the store, the server listening, the hot cells in its memory tier.
func (r *run) setupServe(dir string, hot, warm []scenario.CellSpec) (*serveEnv, error) {
	// The warm set goes straight to a checksummed disk store over the same
	// directory; the serving cache starts with an empty memory tier.
	pre := scenario.NewCellCacheStore(store.WithChecksum(store.NewDisk(dir)), 1)
	errs := make([]error, r.workers)
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(warm); k += r.workers {
				if _, _, err := pre.GetOrExecute(warm[k]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("write warm set: %w", err)
		}
	}
	cache := scenario.NewCellCacheStore(r.storeStack(dir), memCells)
	var wrap func(http.Handler) http.Handler
	if r.tr != nil {
		wrap = func(h http.Handler) http.Handler { return traceHandler(r.tr, "server.handler", h) }
	}
	ls, err := startServer(server.Config{Cache: cache, Workers: r.workers}, wrap)
	if err != nil {
		cache.Close()
		return nil, err
	}
	for _, spec := range hot {
		if _, _, err := cache.GetOrExecute(spec); err != nil {
			ls.stop()
			cache.Close()
			return nil, fmt.Errorf("load hot cell: %w", err)
		}
	}
	return &serveEnv{cache: cache, ls: ls}, nil
}

// runPhase plays a schedule open loop: a dispatcher releases each request
// at its due time to conns senders, each owning one connection. Latency
// is taken from the due time, so a stall delays every later request's
// clock too.
func (r *run) runPhase(base string, client *http.Client, reqs []request, conns int) []outcome {
	out := make([]outcome, len(reqs))
	ch := make(chan int, len(reqs)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				out[i] = r.send(base, client, start, reqs[i])
			}
		}()
	}
	for i, q := range reqs {
		if d := q.due - time.Since(start); d > 0 {
			sleepUntilDue(d)
		}
		ch <- i
	}
	close(ch)
	wg.Wait()
	return out
}

func (r *run) send(base string, client *http.Client, start time.Time, q request) outcome {
	o := outcome{issue: time.Since(start)}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/cells", bytes.NewReader(q.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	traced := r.tr.enabled()
	var id int64
	if traced {
		id = r.tr.newID()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := client.Do(req)
	if err == nil {
		o.status = resp.StatusCode
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.err = err
	o.done = time.Since(start)
	if traced {
		r.tr.record(Span{ID: id, Name: "client.request", Tag: q.class,
			Start: r.tr.at(start.Add(o.issue)), End: r.tr.at(start.Add(o.done)), Status: o.status})
	}
	return o
}

// phaseStats summarizes one phase.
type phaseStats struct {
	lat   map[string][]float64 // ms from due to done, per class
	lagMS []float64            // ms from due to send
}

// checkPhase verifies every response and summarizes the phase. Each
// failure is counted on the run, and so is a growing send lag.
func (r *run) checkPhase(reqs []request, outs []outcome) *phaseStats {
	ps := &phaseStats{lat: map[string][]float64{}}
	for i, o := range outs {
		q := reqs[i]
		r.attempted++
		ps.lagMS = append(ps.lagMS, float64(o.issue-q.due)/1e6)
		if err := verifyServed(q, o); err != nil {
			r.fail("%s request %d: %v", q.class, i, err)
			continue
		}
		ps.lat[q.class] = append(ps.lat[q.class], float64(o.done-q.due)/1e6)
	}
	if n := len(ps.lagMS); n >= 8 {
		first, last := median(ps.lagMS[:n/4]), median(ps.lagMS[n-n/4:])
		if last-first > lagGrowthMS {
			r.fail("send lag grew: median %.3g ms in the first quarter, %.3g ms in the last", first, last)
		}
	}
	return ps
}

// verifyServed checks one response: status 200, the cell's own hash and,
// for sampled requests, a result identical to local execution.
func verifyServed(q request, o outcome) error {
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", o.status, o.body)
	}
	var resp struct {
		Cell   string          `json:"cell"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if resp.Cell != q.spec.Hash() {
		return fmt.Errorf("served cell %s, want %s", resp.Cell, q.spec.Hash())
	}
	if !q.check {
		return nil
	}
	want, err := q.spec.Execute()
	if err != nil {
		return fmt.Errorf("local execution: %w", err)
	}
	if err := checkResult(q.spec.Op, want); err != nil {
		return err
	}
	same, err := sameResult(resp.Result, want)
	if err != nil {
		return err
	}
	if !same {
		return fmt.Errorf("served result differs from local execution")
	}
	return nil
}

// serveWorkload runs serve_open_loop. Set-up is repeated serveSetups
// times and the last environment serves. Untraced, the whole measured
// window is one reference-rate phase; traced, the reference rate runs
// once untraced and once traced, half the window each.
func (r *run) serveWorkload() error {
	hot := cellSet(r.seed, "hot", hotCells)
	warm := cellSet(r.seed, "warm", warmCells)
	var env *serveEnv
	var setups []float64
	for k := 0; k < serveSetups; k++ {
		if env != nil {
			env.close()
		}
		dir := filepath.Join(r.work, "store"+strconv.Itoa(k))
		t0 := time.Now()
		e, err := r.setupServe(dir, hot, warm)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()
	r.metrics["setup_s"] = median(setups)

	client := newClient(r.workers)
	defer client.CloseIdleConnections()
	if r.trace {
		return r.serveTraced(env, client, hot, warm)
	}

	reqs, err := makeSchedule(r.seed, "reference", refRate, time.Duration(r.seconds*float64(time.Second)), hot, warm)
	if err != nil {
		return err
	}
	ref := r.checkPhase(reqs, r.runPhase(env.ls.url, client, reqs, r.workers))
	for _, c := range classes {
		n := len(ref.lat[c])
		if tailSamples(n, 99) < 10 {
			return fmt.Errorf("%s class has %d samples, too few for a p99", c, n)
		}
		r.metrics[c+"_p50_ms"] = percentile(ref.lat[c], 50)
		r.metrics[c+"_p99_ms"] = percentile(ref.lat[c], 99)
		r.note("%s latency: %d samples, %d beyond p99", c, n, tailSamples(n, 99))
	}
	r.note("send lag p99 %.4g ms at %d req/s", percentile(ref.lagMS, 99), refRate)

	return nil
}

// serveTraced measures the reference rate untraced then traced, and
// records the serving layers' counters for the traced half.
func (r *run) serveTraced(env *serveEnv, client *http.Client, hot, warm []scenario.CellSpec) error {
	half := time.Duration(r.seconds * float64(time.Second) / 2)
	var p50 [2]float64
	for k, label := range []string{"untraced", "traced"} {
		reqs, err := makeSchedule(r.seed, "reference/"+label, refRate, half, hot, warm)
		if err != nil {
			return err
		}
		traced := k == 1
		var before scenario.CacheStats
		if traced {
			r.tr.beginRep()
			before = env.cache.Stats()
		}
		ps := r.checkPhase(reqs, r.runPhase(env.ls.url, client, reqs, r.workers))
		var all []float64
		for _, c := range classes {
			all = append(all, ps.lat[c]...)
		}
		p50[k] = percentile(all, 50)
		if traced {
			r.tr.endRep()
			d := cacheDelta(env.cache.Stats(), before)
			r.countCache(d)
			r.tr.count("scenario.cells_executed", float64(d.Executed))
			r.tr.count("sim.replicas.periodic", float64(d.Executed*cellReps))
			r.tr.set("harness.gen_lag_p99_ms", percentile(ps.lagMS, 99))
		}
	}
	r.tr.set("server.queue_wait_p50_ms", env.ls.srv.Metrics().QueueWaitP50MS("cells"))
	r.tr.set("harness.trace_overhead_frac", ratio(p50[1], p50[0])-1)
	return nil
}

// sleepUntilDue blocks the dispatcher for d. time.Sleep wakes up to a
// millisecond late on Linux, which would add generator lateness to every
// measured latency; a nanosleep system call wakes within about 0.1 ms.
func sleepUntilDue(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// cacheDelta is the change in the cache counters between two snapshots.
func cacheDelta(after, before scenario.CacheStats) scenario.CacheStats {
	return scenario.CacheStats{
		MemHits:        after.MemHits - before.MemHits,
		DiskHits:       after.DiskHits - before.DiskHits,
		Executed:       after.Executed - before.Executed,
		Coalesced:      after.Coalesced - before.Coalesced,
		CorruptEntries: after.CorruptEntries - before.CorruptEntries,
	}
}
