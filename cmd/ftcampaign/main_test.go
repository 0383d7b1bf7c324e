package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abftckpt/internal/server"
)

const quickstart = "../../examples/campaigns/quickstart.json"

// runCmd invokes run with an empty stdin and captured output streams.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return runCmdStdin(t, "", args...)
}

// runCmdStdin invokes run with the given stdin and captured output streams.
func runCmdStdin(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestPlatformListing(t *testing.T) {
	code, stdout, _ := runCmd(t, "-platforms")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fixed platforms", "weak-scaling platforms", "paper-fig7", "paper-fig10"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("platform listing missing %q:\n%s", want, stdout)
		}
	}
}

func TestValidateOK(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-spec", quickstart, "-validate")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "OK") || !strings.Contains(stdout, "quickstart") {
		t.Errorf("validate output: %s", stdout)
	}
}

func TestValidateRejectsBadCampaign(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	// A field-level error: heatmap specs reject simulation-only fields.
	if err := os.WriteFile(bad, []byte(`{"name":"x","scenarios":[{"name":"h","kind":"heatmap","protocol":"abft","reps":3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCmd(t, "-spec", bad, "-validate")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "reps") {
		t.Errorf("stderr does not carry the field-level error: %s", stderr)
	}
}

// TestDryRunReportsCohorts: a dry run over a shared Weibull failure
// process reports the cohort plan the run will execute.
func TestDryRunReportsCohorts(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "cohorts.json")
	const js = `{
	  "name": "cohorts",
	  "seed": 5,
	  "reps": 6,
	  "scenarios": [
	    {"name": "sp", "kind": "heatmap", "output": "sim", "protocol": "pure", "share_traces": true,
	     "distribution": {"name": "weibull", "shape": 0.7},
	     "mtbf_minutes": {"values": [120]}, "alphas": {"values": [0.5]}},
	    {"name": "sa", "kind": "heatmap", "output": "sim", "protocol": "abft", "share_traces": true,
	     "distribution": {"name": "weibull", "shape": 0.7},
	     "mtbf_minutes": {"values": [120]}, "alphas": {"values": [0.5]}}
	  ]
	}`
	if err := os.WriteFile(spec, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCmd(t, "-spec", spec, "-dry-run")
	if code != 0 {
		t.Fatalf("dry-run exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "trace cohorts: 1 shared failure processes covering 2 sim cells") {
		t.Errorf("dry-run output missing the cohort plan:\n%s", stdout)
	}
}

func TestValidateMissingFile(t *testing.T) {
	code, _, stderr := runCmd(t, "-spec", filepath.Join(t.TempDir(), "nope.json"), "-validate")
	if code != 1 || stderr == "" {
		t.Errorf("exit %d stderr %q, want 1 with an error", code, stderr)
	}
}

func TestDryRun(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-spec", quickstart, "-dry-run")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"campaign \"quickstart\"", "waste_model_heatmap", "heatmap", "total:", "unique"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("dry-run output missing %q:\n%s", want, stdout)
		}
	}
	// A dry run must not create the output directory or any artifacts.
	if _, err := os.Stat("out"); !os.IsNotExist(err) {
		t.Error("dry run created an output directory")
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCmd(t, "-h")
	if code != 0 {
		t.Errorf("-h exit %d, want 0", code)
	}
	if !strings.Contains(stderr, "-spec") {
		t.Errorf("usage text missing: %s", stderr)
	}
}

func TestMissingSpecIsUsageError(t *testing.T) {
	code, _, _ := runCmd(t)
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

func TestUnknownFlagIsUsageError(t *testing.T) {
	code, _, stderr := runCmd(t, "-bogus")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "bogus") {
		t.Errorf("stderr does not name the bad flag: %s", stderr)
	}
}

// TestRunSmallCampaign runs a tiny campaign end to end through run(),
// checking artifacts, the manifest, and the cached rerun summary line.
func TestRunSmallCampaign(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "c.json")
	if err := os.WriteFile(spec, []byte(`{"name":"tiny","scenarios":[{"name":"pd","kind":"periods"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	code, stdout, stderr := runCmd(t, "-spec", spec, "-out", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote pd (table)") {
		t.Errorf("stdout: %s", stdout)
	}
	for _, f := range []string{"pd.csv", "pd.txt", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Errorf("missing output %s: %v", f, err)
		}
	}
	// The rerun is served entirely by the cache.
	code, stdout, stderr = runCmd(t, "-spec", spec, "-out", out)
	if code != 0 {
		t.Fatalf("rerun exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "0 executed") {
		t.Errorf("rerun summary not cached: %s", stdout)
	}
}

// TestValidateExamples validates every committed example campaign (what the
// CI docs job runs).
func TestValidateExamples(t *testing.T) {
	matches, err := filepath.Glob("../../examples/campaigns/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 4 {
		t.Fatalf("found only %d example campaigns: %v", len(matches), matches)
	}
	for _, path := range matches {
		code, stdout, stderr := runCmd(t, "-spec", path, "-validate")
		if code != 0 {
			t.Errorf("%s: exit %d, stderr: %s", path, code, stderr)
		}
		if !strings.Contains(stdout, "OK") {
			t.Errorf("%s: validate output: %s", path, stdout)
		}
	}
}

// TestRunSilentMLCampaign runs the silent-error and multi-level scenario
// kinds end to end through the CLI on reduced grids.
func TestRunSilentMLCampaign(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "c.json")
	const js = `{
	  "name": "silentml",
	  "seed": 3,
	  "reps": 5,
	  "scenarios": [
	    {"name": "sh", "kind": "silent_heatmap", "output": "diff", "recovery": "forward",
	     "mtbe_minutes": {"values": [60, 240]}, "verify_costs": {"values": [30, 300]}},
	    {"name": "ml", "kind": "multilevel_scaling",
	     "nodes": {"values": [1000, 100000]},
	     "ml_series": [{"name": "two-level", "mtbf_at_base": 315576000,
	                    "c1": 30, "r1": 30, "c2": 600, "r2": 600, "coverage": 0.8}]}
	  ]
	}`
	if err := os.WriteFile(spec, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	code, stdout, stderr := runCmd(t, "-spec", spec, "-out", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"wrote sh (heatmap)", "wrote ml_waste (chart)", "wrote ml_schedule (table)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	for _, f := range []string{"sh.csv", "ml_waste.csv", "ml_schedule.csv", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Errorf("missing output %s: %v", f, err)
		}
	}
}

// rawCellResponse is a /v1/cells response body with the result kept as the
// exact bytes it was encoded to.
type rawCellResponse struct {
	Cell   string          `json:"cell"`
	Cache  string          `json:"cache"`
	Result json.RawMessage `json:"result"`
}

// decodeResponses reads the stream of response bodies -cell prints.
func decodeResponses(t *testing.T, stdout string) []rawCellResponse {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(stdout))
	var all []rawCellResponse
	for {
		var r rawCellResponse
		if err := dec.Decode(&r); err == io.EOF {
			return all
		} else if err != nil {
			t.Fatalf("-cell output is not a stream of responses: %v\n%s", err, stdout)
		}
		all = append(all, r)
	}
}

const fig7Params = `"params": {"T0": 604800, "Alpha": 0.8, "Mu": 7200, "C": 600, "R": 600, "D": 60, "Rho": 0.8, "Phi": 1.03, "Recons": 2}`

// TestCellMatchesServer: for one cell of each kind of evaluation, -cell
// prints the response POST /v1/cells returns for the same spec, with the
// result equal byte for byte.
func TestCellMatchesServer(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	for name, body := range map[string]string{
		"model":    `{"op": "model", "protocol": "abft", ` + fig7Params + `}`,
		"sim":      `{"op": "sim", "protocol": "bi", "reps": 40, "seed": 3, ` + fig7Params + `}`,
		"adaptive": `{"op": "sim", "protocol": "abft", "reps": 4096, "seed": 3, "precision": {"rel_ci": 0.05}, ` + fig7Params + `}`,
		"silent_sim": `{"op": "silent_sim", "reps": 30, "seed": 5, "silent": {"recovery": "forward",
		  "params": {"W": 100000, "MuSilent": 3600, "V": 60, "C": 120, "R": 120, "F": 30, "Detect": 10}}}`,
		"ml_model": `{"op": "ml_model", "multilevel": {"W": 604800, "Mu": 50000, "D": 60,
		  "C1": 30, "R1": 30, "C2": 600, "R2": 600, "Coverage": 0.8}}`,
	} {
		t.Run(name, func(t *testing.T) {
			code, stdout, stderr := runCmdStdin(t, body, "-cell", "-", "-no-cache")
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			got := decodeResponses(t, stdout)
			resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var want rawCellResponse
			if err := json.NewDecoder(resp.Body).Decode(&want); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /v1/cells: code %d, %v", resp.StatusCode, err)
			}
			if len(got) != 1 || got[0].Cell != want.Cell || got[0].Cache != "exec" {
				t.Fatalf("-cell printed %+v, want one executed response for cell %s", got, want.Cell)
			}
			if !bytes.Equal(got[0].Result, want.Result) {
				t.Errorf("result differs from /v1/cells:\n-cell:  %s\nserver: %s", got[0].Result, want.Result)
			}
		})
	}
}

// TestCellRepeatIsServedFromDisk: a second -cell run over the same cache
// directory loads the result instead of executing it.
func TestCellRepeatIsServedFromDisk(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache")
	const body = `{"op": "periods", "probe": {"c": 60, "mu": 3600, "d": 60, "r": 60}}`
	var outputs []string
	for _, want := range []string{`"cache": "exec"`, `"cache": "disk"`} {
		code, stdout, stderr := runCmdStdin(t, body, "-cell", "-", "-cache", cache)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr)
		}
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %s:\n%s", want, stdout)
		}
		outputs = append(outputs, stdout)
	}
	first, second := decodeResponses(t, outputs[0]), decodeResponses(t, outputs[1])
	if len(first) != 1 || len(second) != 1 || !bytes.Equal(first[0].Result, second[0].Result) {
		t.Errorf("cached result differs from the executed one:\n%s\n%s", outputs[0], outputs[1])
	}
}

// TestCellRejectsBadInput: a spec /v1/cells would refuse fails the whole
// input with exit 1 before any cell runs, and -cell with -spec is a usage
// error.
func TestCellRejectsBadInput(t *testing.T) {
	const good = `{"op": "periods", "probe": {"c": 60, "mu": 3600, "d": 60, "r": 60}}`
	for name, input := range map[string]string{
		"unknown field": good + `{"op": "periods", "probe": {"c": 60, "mu": 3600, "d": 60, "r": 60}, "bogus": 1}`,
		"invalid spec":  good + `{"op": "periods"}`,
		"not json":      good + `{"op":`,
		"empty":         "",
	} {
		code, stdout, stderr := runCmdStdin(t, input, "-cell", "-", "-no-cache")
		if code != 1 || stderr == "" {
			t.Errorf("%s: exit %d, stderr %q; want 1 with an error", name, code, stderr)
		}
		if stdout != "" {
			t.Errorf("%s: a cell ran before the bad spec was rejected:\n%s", name, stdout)
		}
	}
	if code, _, _ := runCmd(t, "-cell", "-", "-spec", quickstart); code != 2 {
		t.Errorf("-cell with -spec: exit %d, want 2", code)
	}
}

// TestCellExamples runs every committed example cell file.
func TestCellExamples(t *testing.T) {
	matches, err := filepath.Glob("../../examples/cells/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 3 {
		t.Fatalf("found only %d example cell files: %v", len(matches), matches)
	}
	for _, path := range matches {
		code, stdout, stderr := runCmd(t, "-cell", path, "-no-cache")
		if code != 0 {
			t.Errorf("%s: exit %d, stderr: %s", path, code, stderr)
			continue
		}
		responses := decodeResponses(t, stdout)
		if len(responses) == 0 {
			t.Errorf("%s: no response printed", path)
		}
		for _, r := range responses {
			if r.Cache != "exec" || string(r.Result) == "{}" {
				t.Errorf("%s: response %+v", path, r)
			}
		}
	}
}
