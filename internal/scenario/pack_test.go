package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"abftckpt/internal/store"
)

// packCampaign has many cells: a 20×20 model heatmap (400 singleton
// cells) plus the cohort trio of cohortCampaign (four three-cell
// cohorts sharing failure processes).
func packCampaign(t *testing.T) *Campaign {
	t.Helper()
	c := cohortCampaign(t)
	from, to := 30.0, 600.0
	alphaFrom, alphaTo := 0.0, 1.0
	c.Scenarios = append(c.Scenarios, &Spec{
		Name: "hm_model", Kind: KindHeatmap, Protocol: ProtoAbft,
		MTBFMinutes: &Axis{From: &from, To: &to, Count: 20},
		Alphas:      &Axis{From: &alphaFrom, To: &alphaTo, Count: 20},
	})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// countingResultStore counts single and batched writes over a memory
// store; fail makes every batched write fail.
type countingResultStore struct {
	*store.Memory
	puts, batches, items atomic.Int64
	fail                 bool
}

func (s *countingResultStore) Put(key string, value []byte) error {
	s.puts.Add(1)
	return s.Memory.Put(key, value)
}

func (s *countingResultStore) PutBatch(items []store.Item) error {
	s.batches.Add(1)
	s.items.Add(int64(len(items)))
	if s.fail {
		return errors.New("injected commit failure")
	}
	return s.Memory.PutBatch(items)
}

// fakeFleet is an ExecBatch hook executing each call locally and
// recording what it was handed.
type fakeFleet struct {
	mu    sync.Mutex
	calls [][]CellSpec
	fail  func(call int) error
}

func (f *fakeFleet) exec(specs []CellSpec) ([]CellResult, error) {
	f.mu.Lock()
	call := len(f.calls)
	f.calls = append(f.calls, append([]CellSpec(nil), specs...))
	f.mu.Unlock()
	if f.fail != nil {
		if err := f.fail(call); err != nil {
			return nil, err
		}
	}
	out, err := ExecuteShard(NewCellCache("", 0), specs, 1, 0)
	if err != nil {
		return nil, err
	}
	return out.Results, nil
}

// Packing is the coordinator's unit of work: every cohort lands whole in
// exactly one call, calls are few and bounded, each pack's results reach
// the store in one batched commit, and the artifacts match a local run.
func TestRunnerPacksWholeCohorts(t *testing.T) {
	const workers = 2
	c := packCampaign(t)
	local, err := (&Runner{Cache: NewCellCache("", 0), Workers: workers}).Run(c)
	if err != nil {
		t.Fatal(err)
	}

	rs := &countingResultStore{Memory: store.NewMemory()}
	fleet := &fakeFleet{}
	unstored := 0
	// An executed cell counts as done only once its pack is committed.
	onEvent := func(ev CellEvent) {
		if _, err := rs.Get(ev.Hash); err != nil {
			unstored++
		}
	}
	rep, err := (&Runner{Cache: NewCellCacheStore(rs, 0), Workers: workers, ExecBatch: fleet.exec, OnEvent: onEvent}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if unstored != 0 {
		t.Errorf("%d cells reported done before their results were stored", unstored)
	}
	if rep.Unique < 400 || rep.Executed != rep.Unique {
		t.Fatalf("report: executed %d of %d unique cells, want all of at least 400", rep.Executed, rep.Unique)
	}

	if n := len(fleet.calls); n < 2 || n > packsPerWorker*workers {
		t.Errorf("%d ExecBatch calls, want 2..%d", n, packsPerWorker*workers)
	}
	callOf := map[string]int{}      // cell hash -> call
	keyCall := map[ProcessKey]int{} // cohort -> call
	for i, call := range fleet.calls {
		if len(call) > MaxShardCells {
			t.Errorf("call %d carries %d cells, limit %d", i, len(call), MaxShardCells)
		}
		for _, spec := range call {
			h := spec.Hash()
			if prev, dup := callOf[h]; dup {
				t.Errorf("cell %s in calls %d and %d", h[:12], prev, i)
			}
			callOf[h] = i
			if key, ok := SimProcessKey(spec); ok {
				if prev, seen := keyCall[key]; seen && prev != i {
					t.Errorf("cohort %+v split across calls %d and %d", key, prev, i)
				}
				keyCall[key] = i
			}
		}
	}
	if len(callOf) != rep.Unique {
		t.Errorf("calls cover %d cells, want %d", len(callOf), rep.Unique)
	}
	if len(keyCall) != 4 {
		t.Errorf("%d cohorts dispatched, want 4", len(keyCall))
	}

	if puts := rs.puts.Load(); puts != 0 {
		t.Errorf("%d single Puts, want 0", puts)
	}
	if b := rs.batches.Load(); b != int64(len(fleet.calls)) {
		t.Errorf("%d PutBatch commits for %d packs, want one per pack", b, len(fleet.calls))
	}
	if items := rs.items.Load(); items != int64(rep.Executed) {
		t.Errorf("%d items committed, want %d", items, rep.Executed)
	}

	want, got := artifactCSVs(t, local), artifactCSVs(t, rep)
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("artifact sets differ: %d vs %d", len(want), len(got))
	}
	for name, csv := range want {
		if !bytes.Equal(csv, got[name]) {
			t.Errorf("artifact %q differs between packed and local execution", name)
		}
	}
}

// One failed pack fails the run with that pack's error.
func TestRunnerPackErrorFailsRun(t *testing.T) {
	boom := errors.New("worker fleet down")
	fleet := &fakeFleet{fail: func(call int) error {
		if call == 1 {
			return boom
		}
		return nil
	}}
	_, err := (&Runner{Cache: NewCellCache("", 0), Workers: 2, ExecBatch: fleet.exec}).Run(packCampaign(t))
	if !errors.Is(err, boom) {
		t.Fatalf("run error = %v, want %v", err, boom)
	}
}

// A failed batched commit degrades the store tier only: the run succeeds,
// and every entry of the failed commits counts as a store error.
func TestRunnerPackStoreFailureServesResults(t *testing.T) {
	rs := &countingResultStore{Memory: store.NewMemory(), fail: true}
	cache := NewCellCacheStore(rs, 0)
	fleet := &fakeFleet{}
	rep, err := (&Runner{Cache: cache, Workers: 2, ExecBatch: fleet.exec}).Run(packCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.StoreErrors != int64(rep.Executed) || s.Executed != int64(rep.Executed) {
		t.Errorf("stats = %+v, want %d executions and as many store errors", s, rep.Executed)
	}
	if b := rs.batches.Load(); b != int64(len(fleet.calls)) {
		t.Errorf("%d commit attempts for %d packs", b, len(fleet.calls))
	}
}

// Concurrent packed runs over one cache pack the campaign differently
// (different worker counts) and so lead and wait on each other's cells;
// both must finish with identical artifacts and every cell executed once.
func TestRunnerConcurrentPackedRunsShareCache(t *testing.T) {
	c := packCampaign(t)
	cache := NewCellCacheStore(store.NewMemory(), 0)
	reps := make([]*Report, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, w := range []int{1, 3} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fleet := &fakeFleet{}
			reps[i], errs[i] = (&Runner{Cache: cache, Workers: w, ExecBatch: fleet.exec}).Run(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Executed != int64(reps[0].Unique) {
		t.Errorf("cache executed %d cells, want each of %d once", s.Executed, reps[0].Unique)
	}
	a, b := artifactCSVs(t, reps[0]), artifactCSVs(t, reps[1])
	for name, csv := range a {
		if !bytes.Equal(csv, b[name]) {
			t.Errorf("artifact %q differs between concurrent runs", name)
		}
	}
}

// packCohorts partitions its input into packs of whole cohorts, in
// order, within the cell and byte limits; only a cohort too large for
// any pack rides alone over them.
func TestPackCohortsBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	var specs map[string]CellSpec
	spec := func(h string) CellSpec { return specs[h] }
	for trial := 0; trial < 40; trial++ {
		specs = map[string]CellSpec{}
		var cos []cohort
		for i, n := 0, 1+rng.IntN(60); i < n; i++ {
			size := 1 + rng.IntN(8)
			if rng.IntN(10) == 0 {
				size = 1 + rng.IntN(2*MaxShardCells)
			}
			keep := rng.IntN(4) == 0
			var co cohort
			for k := 0; k < size; k++ {
				h := fmt.Sprintf("%d/%d/%d", trial, i, k)
				s := periodsCell(float64(k + 1))
				if keep {
					s = CellSpec{Op: OpSim, Reps: 1000, Precision: &CellPrecision{RelCI: 0.05, KeepReplicas: true}}
				}
				specs[h] = s
				co.hashes = append(co.hashes, h)
			}
			cos = append(cos, co)
		}
		n := 1 + rng.IntN(24)
		packs := packCohorts(cos, n, spec)

		// Each pack is a concatenation of whole cohorts, each cohort in
		// exactly one pack, in input order within a pack.
		owner := map[string]int{}
		for p, pk := range packs {
			for _, h := range pk.hashes {
				owner[h] = p
			}
		}
		packed := make([][]string, len(packs))
		cells := 0
		for _, co := range cos {
			p, ok := owner[co.hashes[0]]
			if !ok {
				t.Fatalf("trial %d: cohort %s not packed", trial, co.hashes[0])
			}
			for _, h := range co.hashes {
				if owner[h] != p {
					t.Fatalf("trial %d: cohort %s split across packs", trial, co.hashes[0])
				}
			}
			packed[p] = append(packed[p], co.hashes...)
			cells += len(co.hashes)
		}
		total := 0
		for p, pk := range packs {
			total += len(pk.hashes)
			if strings.Join(pk.hashes, ",") != strings.Join(packed[p], ",") {
				t.Fatalf("trial %d: pack %d is not its cohorts in order", trial, p)
			}
			bytes := 0
			for _, h := range pk.hashes {
				bytes += resultBytes(specs[h])
			}
			single := len(pk.hashes) == len(cos[indexOfCohort(cos, pk.hashes[0])].hashes)
			if (len(pk.hashes) > MaxShardCells || bytes > maxPackBytes) && !single {
				t.Fatalf("trial %d: pack %d holds %d cells / %d B past the limits", trial, p, len(pk.hashes), bytes)
			}
		}
		if total != cells {
			t.Fatalf("trial %d: packs hold %d cells, want %d", trial, total, cells)
		}
		if len(cos) >= n && cells <= MaxShardCells && len(packs) > n {
			// Small uniform inputs never need overflow packs.
			small := true
			for _, co := range cos {
				small = small && len(co.hashes) <= 8 && resultBytes(specs[co.hashes[0]]) < 2<<10
			}
			if small {
				t.Fatalf("trial %d: %d packs for n=%d", trial, len(packs), n)
			}
		}
	}
}

// indexOfCohort returns the index of the cohort whose first hash is h.
func indexOfCohort(cos []cohort, h string) int {
	for i, co := range cos {
		if co.hashes[0] == h {
			return i
		}
	}
	return -1
}
