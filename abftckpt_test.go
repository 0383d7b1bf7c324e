package abftckpt

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestFacadePredict(t *testing.T) {
	p := Fig7Params(2*Hour, 0.8)
	res := Predict(AbftPeriodicCkpt, p)
	if !res.Feasible || res.Waste <= 0 || res.Waste >= 1 {
		t.Fatalf("implausible prediction: %+v", res)
	}
	all := PredictAll(p)
	if len(all) != len(Protocols) {
		t.Fatalf("PredictAll returned %d results", len(all))
	}
	if all[AbftPeriodicCkpt].Waste >= all[PurePeriodicCkpt].Waste {
		t.Error("composite should win at mu=2h, alpha=0.8")
	}
}

func TestFacadeOptimalPeriod(t *testing.T) {
	p, ok := OptimalPeriod(600, 2*Hour, 60, 600)
	if !ok {
		t.Fatal("expected feasible")
	}
	want := math.Sqrt(2 * 600 * (2*Hour - 660))
	if math.Abs(p-want) > 1e-9 {
		t.Fatalf("period = %v, want %v", p, want)
	}
}

func TestFacadeSimulate(t *testing.T) {
	p := Fig7Params(2*Hour, 0.5)
	agg := Simulate(SimConfig{Params: p, Protocol: AbftPeriodicCkpt, Reps: 50, Seed: 1}, SimOptions{})
	predicted := Predict(AbftPeriodicCkpt, p).Waste
	if math.Abs(agg.Waste.Mean-predicted) > 0.08 {
		t.Fatalf("sim %v vs model %v", agg.Waste.Mean, predicted)
	}
}

func TestFacadeScenarios(t *testing.T) {
	for _, w := range []WeakScaling{Fig8Scenario(), Fig9Scenario(), Fig10Scenario()} {
		p := w.ParamsAt(10_000)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if a := Fig9Scenario().Alpha(1_000_000); math.Abs(a-0.975) > 0.01 {
		t.Fatalf("fig9 alpha at 1M = %v", a)
	}
}

func TestFacadeDistributions(t *testing.T) {
	dists := []Distribution{
		Exponential(100),
		Weibull(0.7, 100),
		LogNormal(1.2, 100),
		GammaDist(2, 100),
		EmpiricalDist([]float64{50, 100, 150}),
	}
	for _, d := range dists {
		if got := d.Mean(); got != 100 {
			t.Errorf("%v: Mean() = %v, want exactly 100", d, got)
		}
		if lo, hi := d.CDF(0), d.CDF(1e6); lo != 0 || hi < 0.99 {
			t.Errorf("%v: CDF endpoints %v, %v", d, lo, hi)
		}
	}
	// The re-exported constructors plug straight into a campaign.
	p := Fig7Params(2*Hour, 0.5)
	agg := Simulate(SimConfig{
		Params: p, Protocol: AbftPeriodicCkpt, Reps: 30, Seed: 2,
		Distribution: func(mtbf float64) Distribution { return Weibull(0.7, mtbf) },
	}, SimOptions{})
	if agg.Waste.Mean <= 0 || agg.Waste.Mean >= 1 {
		t.Errorf("weibull campaign waste = %v", agg.Waste.Mean)
	}
}

func TestFacadeSilent(t *testing.T) {
	p := SilentParams{
		W: 100_000, MuSilent: Hour,
		V: 60, C: 120, R: 120, F: 30, Detect: 10,
	}
	for _, mode := range []SilentRecovery{SilentBackward, SilentForward} {
		res := PredictSilent(mode, p)
		if res.Waste <= 0 || res.Waste >= 1 {
			t.Fatalf("%v: implausible waste %v", mode, res.Waste)
		}
		if got := SilentOptimalPeriod(mode, p); math.Abs(got-res.Period) > 1e-9 {
			t.Errorf("%v: optimal period %v but result used %v", mode, got, res.Period)
		}
		agg := SimulateSilent(SimSilentConfig{Params: p, Mode: mode, Reps: 60, Seed: 3})
		if math.Abs(agg.Waste.Mean-res.Waste) > 0.05 {
			t.Errorf("%v: sim %v vs model %v", mode, agg.Waste.Mean, res.Waste)
		}
	}
}

func TestFacadeMultiLevel(t *testing.T) {
	p := MultiLevelParams{
		W: Week, Mu: 50_000, D: 60,
		C1: 30, R1: 30, C2: 600, R2: 600, Coverage: 0.8,
	}
	res := PredictMultiLevel(p)
	if !res.Feasible || res.K <= 0 || res.Period <= 0 {
		t.Fatalf("implausible schedule: %+v", res)
	}
	agg := SimulateMultiLevel(SimMultiLevelConfig{Params: p, Reps: 60, Seed: 4})
	if math.Abs(agg.Waste.Mean-res.Waste) > 0.05 {
		t.Errorf("sim %v vs model %v", agg.Waste.Mean, res.Waste)
	}
}

func TestFacadeSimulateWorkerInvariance(t *testing.T) {
	p := Fig7Params(2*Hour, 0.5)
	base := SimConfig{Params: p, Protocol: BiPeriodicCkpt, Reps: 24, Seed: 6}
	serial := base
	serial.Workers = 1
	parallel := base
	parallel.Workers = 8
	if Simulate(serial, SimOptions{}).Aggregate != Simulate(parallel, SimOptions{}).Aggregate {
		t.Error("facade Simulate not worker-count invariant")
	}
}

func TestFacadeCampaignServing(t *testing.T) {
	c, err := LoadCampaignFile("examples/campaigns/quickstart.json")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Unique == 0 || plan.Unique > plan.Cells || len(plan.Scenarios) != len(c.Scenarios) {
		t.Fatalf("unexpected plan: %+v", plan)
	}
	// The embeddable handler serves the same API as cmd/ftserve; one
	// synchronous cell through the shared cache proves the wiring.
	cache := NewCellCache(t.TempDir(), 64)
	ts := httptest.NewServer(NewCampaignHandler(cache, 2))
	defer ts.Close()
	body := `{"op": "periods", "probe": {"c": 60, "mu": 3600, "d": 60, "r": 60}}`
	for i, want := range []string{"exec", "mem"} {
		resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != want {
			t.Fatalf("cell request %d: code %d X-Cache %q, want 200 %q",
				i, resp.StatusCode, resp.Header.Get("X-Cache"), want)
		}
	}
	if stats := cache.Stats(); stats.Executed != 1 || stats.MemHits != 1 {
		t.Errorf("cache stats: %+v, want 1 execution and 1 memory hit", stats)
	}
}

func TestFacadeCampaign(t *testing.T) {
	c, err := LoadCampaignFile("examples/campaigns/quickstart.json")
	if err != nil {
		t.Fatal(err)
	}
	// Run only the analytic scenarios to keep the facade test fast.
	var fast []*CampaignSpec
	for _, s := range c.Scenarios {
		switch s.Name {
		case "periods", "parity":
			fast = append(fast, s)
		}
	}
	c.Scenarios = fast
	rep, err := RunCampaign(c, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Artifacts) != 2 || rep.Executed == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}
