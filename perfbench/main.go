// Command perfbench is the repository benchmark: four workloads that
// drive the campaign engine, the cell server and the sharded fleet
// in-process, check every output against a reference, and print
// end-to-end metrics (untraced) or a per-layer breakdown (traced).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload campaign_paired --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any verification mismatch
// makes the command exit 1. See README.md for the workloads, the
// metrics and how each layer metric maps to an end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxRunTime stops a run that would overrun its time limit; the run
// reports nothing and exits nonzero instead.
const maxRunTime = 170 * time.Second

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int
	work     string // scratch directory of this invocation
	tr       *tracer

	attempted, failed int
	metrics           map[string]float64
	info              []string // extra report lines (sample counts, fail_frac)
	stderr            io.Writer
}

// fail counts a failed operation and explains it on stderr.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.stderr, "perfbench: FAIL: "+format+"\n", args...)
}

func (r *run) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// minReps is the fewest repetitions a closed-loop run measures; a
// traced run needs two untraced and two traced ones.
func (r *run) minReps() int {
	if r.trace {
		return 4
	}
	return 3
}

// windowFull reports, after done repetitions since start, whether one
// more would overrun the measured window by more than half a repetition.
func (r *run) windowFull(start time.Time, done int) bool {
	if done < r.minReps() {
		return false
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(done)/2 > r.seconds
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(allWorkloads, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range allWorkloads {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(allWorkloads, ", "))
		return 2
	}

	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	watchdog := time.AfterFunc(maxRunTime, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v; aborting\n", maxRunTime)
		os.Exit(3)
	})
	defer watchdog.Stop()

	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		workers:  procs,
		metrics:  map[string]float64{},
		stderr:   stderr,
	}
	r.work = filepath.Join(buildDir, "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(r.work)
	if r.trace {
		r.tr = newTracer()
	}

	total0, steal0 := cpuTimes()
	var err error
	switch r.workload {
	case wlPaired, wlCompanion:
		err = r.campaignWorkload()
	case wlServe:
		err = r.serveWorkload()
	case wlFleet:
		err = r.fleetWorkload()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if r.attempted == 0 {
		fmt.Fprintln(stderr, "perfbench: no operation was attempted")
		return 1
	}
	r.note("fail_frac %.6g (%d failed of %d attempted)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	if total1, steal1 := cpuTimes(); total1 > total0 {
		r.note("host steal %.1f%% of CPU time during the run", 100*(steal1-steal0)/(total1-total0))
	}

	var defs []metricDef
	if r.trace {
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.write(path, r.workload, r.seed); err != nil {
			fmt.Fprintln(stderr, "perfbench: write trace:", err)
			return 1
		}
		tf, err := readTrace(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		r.metrics = layerMetrics(tf)
		r.note("trace written to %s (%d spans, %d traced repetitions)", path, len(tf.Spans), len(tf.Reps))
		defs = perLayer
	} else {
		r.metrics["peak_rss_mb"] = peakRSSMiB()
		defs = endToEndFor(r.workload)
	}
	return r.report(stdout, defs)
}

// report prints the human-readable table and the result line.
func (r *run) report(stdout io.Writer, defs []metricDef) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	fmt.Fprintf(stdout, "workload %s seed %d trace %v\n", r.workload, r.seed, r.trace)
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(r.stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		out[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	sort.Strings(r.info)
	for _, line := range r.info {
		fmt.Fprintln(stdout, "  #", line)
	}
	correct := r.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintln(r.stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// cpuTimes reads the machine's total and stolen CPU time, in clock
// ticks, from /proc/stat. Time stolen by the hypervisor slows every
// metric, so each run reports its share.
func cpuTimes() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
