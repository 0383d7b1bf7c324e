package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"abftckpt/internal/scenario"
	"abftckpt/internal/store"
)

// artifactCSVs renders artifacts as CSV keyed by "<campaign>/<name>".
func artifactCSVs(campaign string, arts []scenario.Artifact, into map[string][]byte) error {
	for i := range arts {
		var buf bytes.Buffer
		if err := arts[i].WriteCSV(&buf); err != nil {
			return fmt.Errorf("render %s/%s: %w", campaign, arts[i].Name, err)
		}
		into[campaign+"/"+arts[i].Name] = buf.Bytes()
	}
	return nil
}

// diffArtifacts describes the first difference between the reference
// artifacts and a repetition's, or returns "" when they are identical.
func diffArtifacts(want, got map[string][]byte) string {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			return fmt.Sprintf("artifact %s missing", name)
		}
		if !bytes.Equal(want[name], g) {
			at := 0
			for at < len(g) && at < len(want[name]) && g[at] == want[name][at] {
				at++
			}
			return fmt.Sprintf("artifact %s differs from the reference at byte %d", name, at)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Sprintf("unexpected artifact %s", name)
		}
	}
	return ""
}

// cellEntry mirrors the record the cell cache writes to its store.
type cellEntry struct {
	Spec      scenario.CellSpec   `json:"spec"`
	Result    scenario.CellResult `json:"result"`
	ElapsedMS float64             `json:"elapsed_ms"`
}

// cellInfo is what the traced run needs to know about one executed cell.
type cellInfo struct {
	op       string
	replicas int64
}

// checkResult enforces the result invariants the benchmark relies on:
// a simulation-backed cell reports a mean waste in [0, 1).
func checkResult(op string, r scenario.CellResult) error {
	switch op {
	case scenario.OpSim, scenario.OpSilentSim, scenario.OpMLSim:
		if r.Sim == nil {
			return fmt.Errorf("%s cell has no sim result", op)
		}
		w := float64(r.Sim.WasteMean)
		if math.IsNaN(w) || w < 0 || w >= 1 {
			return fmt.Errorf("%s cell waste %v outside [0,1)", op, w)
		}
	}
	return nil
}

// collectEntries decodes the stored records of the given cells, checks
// each belongs to its key and satisfies checkResult, and returns what the
// traced run needs per cell.
func collectEntries(rs store.ResultStore, hashes []string, into map[string]cellInfo) error {
	vals, err := rs.GetBatch(hashes)
	if err != nil {
		return fmt.Errorf("read reference cells: %w", err)
	}
	if len(vals) != len(hashes) {
		return fmt.Errorf("reference store holds %d of %d cells", len(vals), len(hashes))
	}
	for h, v := range vals {
		var e cellEntry
		if err := json.Unmarshal(v, &e); err != nil {
			return fmt.Errorf("decode reference cell %s: %w", h, err)
		}
		if e.Spec.Hash() != h {
			return fmt.Errorf("reference cell %s holds the spec of %s", h, e.Spec.Hash())
		}
		if err := checkResult(e.Spec.Op, e.Result); err != nil {
			return fmt.Errorf("reference cell %s: %w", h, err)
		}
		info := cellInfo{op: e.Spec.Op}
		if e.Result.Sim != nil {
			info.replicas = int64(e.Result.Sim.Runs)
		}
		into[h] = info
	}
	return nil
}

// sameResult reports whether a served result encodes to the same bytes
// as the locally computed one.
func sameResult(served json.RawMessage, want scenario.CellResult) (bool, error) {
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return false, err
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, served); err != nil {
		return false, err
	}
	if err := json.Compact(&b, wantJSON); err != nil {
		return false, err
	}
	return bytes.Equal(a.Bytes(), b.Bytes()), nil
}
