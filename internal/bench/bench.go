// Package bench is the continuous-benchmark harness: it runs a named suite
// of micro and meso benchmarks over the simulator's hot paths
// programmatically (via testing.Benchmark), emits machine-readable reports
// (BENCH_<rev>.json), and compares a fresh run against a committed baseline
// with configurable tolerances so CI can fail on performance regressions.
//
// Reports carry a calibration measurement — a fixed, dependency-free
// CPU-bound workload — so ns/op comparisons between machines of different
// speeds can be normalized by the calibration ratio. Allocation counts are
// compared exactly, though they are not fully deterministic: the campaign
// benchmarks spread by 1-2 allocs/op between runs of one tree (see
// ROADMAP.md, item 1).
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"abftckpt/internal/rng"
)

// Result is the measurement of one benchmark.
type Result struct {
	Name        string  `json:"name"`
	Gated       bool    `json:"gated,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Extra holds derived throughput metrics, e.g. "cells/sec".
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is one full suite run, serialized as BENCH_<rev>.json.
type Report struct {
	Rev       string    `json:"rev"`
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	NumCPU    int       `json:"num_cpu"`
	Timestamp time.Time `json:"timestamp"`
	BenchTime string    `json:"bench_time"`
	// CalibrationNsPerOp measures calibrationWorkload on this machine at
	// report time; the ratio of two reports' calibrations estimates their
	// relative machine speed.
	CalibrationNsPerOp float64  `json:"calibration_ns_per_op"`
	Results            []Result `json:"results"`
}

// Lookup returns the named result, if present.
func (r *Report) Lookup(name string) (Result, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return Result{}, false
}

// RunOptions configure a suite run.
type RunOptions struct {
	// Filter selects benchmarks by name; nil runs the whole suite.
	Filter *regexp.Regexp
	// BenchTime is the per-benchmark measurement budget (default 1s; CI
	// uses a short budget to keep the job fast).
	BenchTime time.Duration
	// Samples is how many times each benchmark is measured; the minimum
	// ns/op is reported (the classic low-noise estimator — scheduling and
	// frequency jitter only ever add time). Default 3.
	Samples int
	// Rev labels the report (a git revision, "ci", "dev", ...).
	Rev string
}

// Run executes the selected suite benchmarks and assembles a Report.
func Run(opts RunOptions) (*Report, error) {
	if opts.BenchTime > 0 {
		restore, err := setBenchTime(opts.BenchTime)
		if err != nil {
			return nil, err
		}
		defer restore()
	}
	rev := opts.Rev
	if rev == "" {
		rev = "dev"
	}
	report := &Report{
		Rev:       rev,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Timestamp: time.Now().UTC(),
		BenchTime: benchTimeString(opts.BenchTime),
	}
	samples := opts.Samples
	if samples <= 0 {
		samples = 3
	}
	report.CalibrationNsPerOp = measureCalibration(samples)
	for _, bm := range Suite() {
		if opts.Filter != nil && !opts.Filter.MatchString(bm.Name) {
			continue
		}
		res, err := bm.run(samples)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", bm.Name, err)
		}
		report.Results = append(report.Results, res)
	}
	if len(report.Results) == 0 {
		return nil, fmt.Errorf("bench: no benchmarks match the filter")
	}
	return report, nil
}

// benchTimeString echoes what the testing package will use.
func benchTimeString(d time.Duration) string {
	if d <= 0 {
		return "1s"
	}
	return d.String()
}

// setBenchTime routes the requested measurement budget into the testing
// package (testing.Benchmark reads the -test.benchtime flag) and returns a
// restore func. Inside a test binary the flag already exists; in ftbench,
// testing.Init registers it first.
func setBenchTime(d time.Duration) (func(), error) {
	if flag.Lookup("test.benchtime") == nil {
		testing.Init()
	}
	f := flag.Lookup("test.benchtime")
	if f == nil {
		return nil, fmt.Errorf("bench: testing flags unavailable")
	}
	prev := f.Value.String()
	if err := flag.Set("test.benchtime", d.String()); err != nil {
		return nil, err
	}
	return func() { _ = flag.Set("test.benchtime", prev) }, nil
}

// run measures one suite benchmark samples times and keeps the fastest.
func (bm Benchmark) run(samples int) (Result, error) {
	var best testing.BenchmarkResult
	bestNs := math.Inf(1)
	for s := 0; s < samples; s++ {
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bm.Fn(b)
		})
		if br.N == 0 {
			return Result{}, fmt.Errorf("benchmark did not run (panic or Skip?)")
		}
		if ns := float64(br.T.Nanoseconds()) / float64(br.N); ns < bestNs {
			bestNs, best = ns, br
		}
	}
	res := Result{
		Name:        bm.Name,
		Gated:       bm.Gated,
		Iterations:  best.N,
		NsPerOp:     bestNs,
		AllocsPerOp: int64(best.AllocsPerOp()),
		BytesPerOp:  int64(best.AllocedBytesPerOp()),
	}
	if bm.UnitsPerOp > 0 && bm.UnitName != "" && bestNs > 0 {
		res.Extra = map[string]float64{
			bm.UnitName + "/sec": bm.UnitsPerOp * 1e9 / bestNs,
		}
	}
	return res, nil
}

// calibrationWorkload is the fixed reference workload: a deterministic
// xoshiro + math.Log loop touching the same instruction mix as the
// simulator's sampling floor, with no dependence on repository code paths
// that the suite itself measures. It must never change — recorded
// calibrations would stop being comparable.
func calibrationWorkload() float64 {
	src := rng.New(1)
	acc := 0.0
	for i := 0; i < 4096; i++ {
		acc += math.Log(src.Float64Open())
	}
	return acc
}

// measureCalibration times the reference workload, keeping the fastest of
// samples runs like every other measurement.
func measureCalibration(samples int) float64 {
	best := math.Inf(1)
	for s := 0; s < samples; s++ {
		br := testing.Benchmark(func(b *testing.B) {
			sink := 0.0
			for i := 0; i < b.N; i++ {
				sink = calibrationWorkload()
			}
			_ = sink
		})
		if br.N == 0 {
			continue
		}
		if ns := float64(br.T.Nanoseconds()) / float64(br.N); ns < best {
			best = ns
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// WriteFile serializes the report to path with stable indentation.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a report written by WriteFile.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &r, nil
}
