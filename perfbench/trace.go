package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"abftckpt/internal/store"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers around the layers' public interfaces.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Rep    int    `json:"rep"`
	Name   string `json:"name"`
	// Tag qualifies the span: a cell op, a request class or a URL path.
	Tag string `json:"tag,omitempty"`
	// Start and End are nanoseconds since the trace epoch.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// N and M carry sizes: bytes, items or replicas, by span name.
	N      int64 `json:"n,omitempty"`
	M      int64 `json:"m,omitempty"`
	Status int   `json:"status,omitempty"`
}

func (s Span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }
func (s Span) ms() float64      { return float64(s.End-s.Start) / 1e6 }

// traceFile is the on-disk form of one traced run. Reps holds the
// counters read during each traced repetition; Run holds values measured
// once per run, such as the trace overhead.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Run      map[string]float64   `json:"run"`
	Reps     []map[string]float64 `json:"reps"`
	Spans    []Span               `json:"spans"`
}

// spanHeader carries the caller's span id across HTTP so the callee's
// span can name its parent.
const spanHeader = "X-Perfbench-Span"

// tracer keeps spans and counters in memory until the run ends. It is
// switched on only during traced repetitions; a nil tracer, or one
// switched off, records nothing and costs one branch.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	rep   int
	spans []Span
	reps  []map[string]float64
	run   map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), run: map[string]float64{}}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

// beginRep starts a traced repetition and switches the tracer on: spans
// and counters until endRep belong to it.
func (t *tracer) beginRep() {
	t.mu.Lock()
	t.reps = append(t.reps, map[string]float64{})
	t.rep = len(t.reps) - 1
	t.mu.Unlock()
	t.on.Store(true)
}

// endRep switches the tracer off.
func (t *tracer) endRep() { t.on.Store(false) }

// record stores a span, assigning an id when it has none.
func (t *tracer) record(s Span) int64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	s.Rep = t.rep
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// count adds v to a counter of the current repetition; beginRep must
// have been called.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.reps[t.rep][name] += v
	t.mu.Unlock()
}

// set records a value measured once per run.
func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	t.run[name] = v
	t.mu.Unlock()
}

// write saves the trace as one JSON file.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, Run: t.run, Reps: t.reps, Spans: t.spans}
	data, err := json.Marshal(tf)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readTrace(path string) (*traceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("decode trace %s: %w", path, err)
	}
	return &tf, nil
}

// timingStore is a store.ResultStore decorator recording one span per
// call, named "<layer>.<method>".
type timingStore struct {
	inner store.ResultStore
	t     *tracer
	layer string
}

func (s *timingStore) span(method string, start int64, n, m int64, err error) {
	st := 200
	if err != nil {
		st = 500
	}
	s.t.record(Span{Name: s.layer + "." + method, Start: start, End: s.t.now(), N: n, M: m, Status: st})
}

func (s *timingStore) Get(key string) ([]byte, error) {
	if !s.t.enabled() {
		return s.inner.Get(key)
	}
	start := s.t.now()
	v, err := s.inner.Get(key)
	s.span("get", start, int64(len(v)), 0, err)
	return v, err
}

func (s *timingStore) Put(key string, value []byte) error {
	if !s.t.enabled() {
		return s.inner.Put(key, value)
	}
	start := s.t.now()
	err := s.inner.Put(key, value)
	s.span("put", start, int64(len(value)), 1, err)
	return err
}

func (s *timingStore) GetBatch(keys []string) (map[string][]byte, error) {
	if !s.t.enabled() {
		return s.inner.GetBatch(keys)
	}
	start := s.t.now()
	v, err := s.inner.GetBatch(keys)
	s.span("get_batch", start, int64(len(keys)), 0, err)
	return v, err
}

func (s *timingStore) PutBatch(items []store.Item) error {
	if !s.t.enabled() {
		return s.inner.PutBatch(items)
	}
	start := s.t.now()
	err := s.inner.PutBatch(items)
	var bytes int64
	for _, it := range items {
		bytes += int64(len(it.Value))
	}
	s.span("put_batch", start, bytes, int64(len(items)), err)
	return err
}

func (s *timingStore) Flush() error { return s.inner.Flush() }
func (s *timingStore) Close() error { return s.inner.Close() }

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHandler is http.Handler middleware recording one span per request,
// parented to the caller's span when the request carries spanHeader.
func traceHandler(t *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t.record(Span{Name: name, Tag: r.URL.Path, Parent: parent, Start: start, End: t.now(), Status: sw.status})
	})
}

// traceTransport is an http.RoundTripper recording one span per
// round trip, from send until the response body is closed, with request
// and response byte counts.
type traceTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.enabled() {
		return tt.base.RoundTrip(req)
	}
	id := tt.t.newID()
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	start := tt.t.now()
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		tt.t.record(Span{ID: id, Name: tt.name, Tag: req.URL.Path, Start: start, End: tt.t.now(), N: req.ContentLength, Status: -1})
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		tt.t.record(Span{ID: id, Name: tt.name, Tag: req.URL.Path, Start: start, End: tt.t.now(), N: req.ContentLength, M: n, Status: resp.StatusCode})
	}}
	return resp, nil
}

// countingBody counts bytes read and reports once, on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
