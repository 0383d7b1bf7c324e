package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"abftckpt/internal/scenario"
	"abftckpt/internal/server"
)

// TestSmokeAgainstLiveServer runs a short open-loop burst against an
// in-process ftserve and checks the report is coherent: traffic flowed,
// nothing errored, percentiles are populated and monotone.
func TestSmokeAgainstLiveServer(t *testing.T) {
	srv := server.New(server.Config{Cache: scenario.NewCellCache(t.TempDir(), 256), Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	outPath := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-target", ts.URL,
		"-duration", "600ms",
		"-rate", "80",
		"-mix", "hot=5,cold=2,stats=1,artifact=1,campaign=1",
		"-o", outPath,
		"-max-error-rate", "0",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}

	for _, src := range []string{stdout.String(), readFile(t, outPath)} {
		var rep Report
		if err := json.Unmarshal([]byte(src), &rep); err != nil {
			t.Fatalf("report not JSON: %v\n%s", err, src)
		}
		if rep.Sent == 0 || rep.Completed != rep.Sent {
			t.Errorf("sent %d completed %d, want equal and nonzero", rep.Sent, rep.Completed)
		}
		if rep.Errors != 0 || rep.ErrorRate != 0 {
			t.Errorf("errors %d (rate %v) against a healthy server", rep.Errors, rep.ErrorRate)
		}
		if rep.P50MS <= 0 || rep.P99MS < rep.P50MS || rep.MaxMS < rep.P99MS {
			t.Errorf("percentiles not monotone: p50 %v p99 %v max %v", rep.P50MS, rep.P99MS, rep.MaxMS)
		}
		if len(rep.Classes) == 0 {
			t.Error("no per-class breakdown")
		}
		seen := map[string]bool{}
		for _, c := range rep.Classes {
			seen[c.Class] = true
		}
		for _, want := range []string{"hot", "stats"} {
			if !seen[want] {
				t.Errorf("class %q missing from report (classes %v)", want, rep.Classes)
			}
		}
	}
	// The server side of the story: hot cells became memory hits, cold
	// cells executed.
	stats := srv.Cache().Stats()
	if stats.MemHits == 0 || stats.Executed == 0 {
		t.Errorf("cache stats after load: %+v, want mem hits and executions", stats)
	}
}

// TestRejectionsAreCountedNotErrors points ftload at a stub that always
// sheds with 429 + Retry-After and checks rejections are reported
// separately from errors (and do not trip the error-rate SLO).
func TestRejectionsAreCountedNotErrors(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error": "saturated"}`, http.StatusTooManyRequests)
	}))
	defer stub.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-target", stub.URL,
		"-duration", "300ms",
		"-rate", "50",
		"-mix", "hot=1",
		"-max-error-rate", "0",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("429s tripped the error SLO: exit %d, stderr %s", code, stderr.String())
	}
	var rep Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != rep.Completed || rep.Rejected == 0 {
		t.Errorf("rejected %d of %d completed, want all", rep.Rejected, rep.Completed)
	}
	if rep.Errors != 0 {
		t.Errorf("429s counted as errors: %d", rep.Errors)
	}
	if rep.RejectRate != 1 {
		t.Errorf("reject rate %v, want 1", rep.RejectRate)
	}
}

// TestSLOGate checks the p99 gate fails the run when the server is
// slower than the ceiling.
func TestSLOGate(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`)) //nolint:errcheck
	}))
	defer stub.Close()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-target", stub.URL,
		"-duration", "200ms",
		"-rate", "40",
		"-mix", "stats=1",
		"-max-p99-ms", "0.000001", // no real request is this fast
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 on SLO violation", code)
	}
	if !strings.Contains(stderr.String(), "SLO violated") {
		t.Errorf("stderr %q does not report the violation", stderr.String())
	}
}

// TestScheduleSendsEveryDueRequest: a server slower than the request
// interval does not thin the offered load; every request due within the
// duration is sent and completes, and its latency includes the server's.
func TestScheduleSendsEveryDueRequest(t *testing.T) {
	const delay = 150 * time.Millisecond
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Write([]byte(`{}`)) //nolint:errcheck
	}))
	defer stub.Close()
	const duration, rate = 310 * time.Millisecond, 50.0
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-target", stub.URL,
		"-duration", duration.String(),
		"-rate", fmt.Sprint(rate),
		"-mix", "stats=1",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, stderr.String())
	}
	var rep Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	want := int64(math.Ceil(duration.Seconds() * rate))
	if rep.Sent != want || rep.Completed != want {
		t.Errorf("sent %d, completed %d; want %d each", rep.Sent, rep.Completed, want)
	}
	if rep.P50MS < float64(delay.Milliseconds()) {
		t.Errorf("p50 %.1f ms is below the server's %v delay", rep.P50MS, delay)
	}
}

// TestLatencyRunsFromDueTime: a request sent after its due time reports
// the wait before the send as latency.
func TestLatencyRunsFromDueTime(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`)) //nolint:errcheck
	}))
	defer stub.Close()
	g := &generator{client: stub.Client(), base: stub.URL}
	const late = 50 * time.Millisecond
	s := g.one("stats", time.Now().Add(-late))
	if s.failed || s.status != http.StatusOK {
		t.Fatalf("sample %+v, want a 200", s)
	}
	if s.durationMS < float64(late.Milliseconds()) {
		t.Errorf("latency %.3f ms for a request due %v ago", s.durationMS, late)
	}
}

// TestParseMix covers mix parsing edge cases.
func TestParseMix(t *testing.T) {
	if w, err := parseMix("hot=6,cold=2"); err != nil || w["hot"] != 6 || w["cold"] != 2 {
		t.Errorf("parseMix: %v %v", w, err)
	}
	for _, bad := range []string{"", "hot", "nope=1", "hot=-1", "hot=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

// TestUsageErrors covers flag validation exits.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-rate", "0"},
		{"-duration", "0s"},
		{"-mix", "bogus=1"},
		{"positional"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
