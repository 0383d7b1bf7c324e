package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"abftckpt/internal/scenario"
)

// FuzzShardRequest drives the POST /v1/shards wire format: every body is
// either rejected with a 4xx — the same status from parseShard and from
// the live handler — or accepted as 1..MaxShardCells valid cells that
// survive a re-marshal unchanged. Accepted shards of analytic cells also
// run end to end and must answer 200 with one result per cell; shards
// with simulation cells are only decoded, since their cost is bounded by
// the cell budgets, not by the fuzzer's time.
func FuzzShardRequest(f *testing.F) {
	for _, cell := range scenario.BenchCells() {
		body, err := json.Marshal(shardRequest{Cells: []scenario.CellSpec{cell}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"cells":[{"op":"periods","probe":{"c":60,"mu":3600,"d":60,"r":60}},` +
		`{"op":"model","protocol":"pure","params":{"T0":3600,"Mu":7200,"C":60,"R":60,"D":60,"Alpha":0.5,"Rho":0.8,"Phi":1.03,"Recons":2}}]}`))
	f.Add([]byte(`{"cells":[]}`))
	f.Add([]byte(`{"cells":[{"op":"bogus"}]}`))
	f.Add([]byte(`{"cells":null,"extra":1}`))
	f.Add([]byte(`not json`))

	srv := New(Config{Cache: scenario.NewCellCache("", 64), Workers: 1})
	h := srv.Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shards", bytes.NewReader(body)))
		return rec
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req, status, err := parseShard(bytes.NewReader(body))
		if err != nil {
			if status < 400 || status > 499 {
				t.Fatalf("rejected with status %d: %v", status, err)
			}
			if rec := post(body); rec.Code != status {
				t.Fatalf("handler answered %d, parser %d (%v)", rec.Code, status, err)
			}
			return
		}
		if n := len(req.Cells); n == 0 || n > scenario.MaxShardCells {
			t.Fatalf("accepted a shard of %d cells", n)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted shard does not marshal: %v", err)
		}
		again, _, err := parseShard(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-marshaled shard rejected: %v", err)
		}
		for i := range req.Cells {
			if req.Cells[i].Hash() != again.Cells[i].Hash() {
				t.Fatalf("cell %d changed hash across a re-marshal", i)
			}
		}
		for _, c := range req.Cells {
			switch c.Op {
			case scenario.OpSim, scenario.OpSilentSim, scenario.OpMLSim:
				return
			}
		}
		rec := post(body)
		if rec.Code != http.StatusOK {
			t.Fatalf("accepted analytic shard answered %d: %s", rec.Code, rec.Body.Bytes())
		}
		var resp shardResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if len(resp.Results) != len(req.Cells) {
			t.Fatalf("%d results for %d cells", len(resp.Results), len(req.Cells))
		}
	})
}
