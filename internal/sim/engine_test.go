package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/target"
)

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"", Batch, true},
		{"auto", Batch, true},
		{"batch", Batch, true},
		{"execute", Execute, true},
		{"replay", Batch, false},
		{"warp", Batch, false},
	}
	for _, c := range cases {
		got, err := ParseEngine(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	for _, e := range []Engine{Batch, Execute} {
		back, err := ParseEngine(e.String())
		if err != nil || back != e {
			t.Errorf("round trip %v -> %q -> %v, %v", e, e.String(), back, err)
		}
	}
	if got, want := EngineChoices(), "auto, batch, or execute"; got != want {
		t.Errorf("EngineChoices() = %q, want %q", got, want)
	}
	if _, err := ParseEngine("replay"); err == nil || !strings.Contains(err.Error(), EngineChoices()) {
		t.Errorf("ParseEngine error %v does not list the accepted spellings", err)
	}
}

// comparable is the engine-independent part of an Outcome: the fields a
// campaign report is built from.
type comparable struct {
	Detected    bool
	Crashed     bool
	DetectedBy  string
	Activations int
}

func comparableOf(out Outcome) comparable {
	return comparable{
		Detected:    out.Detected,
		Crashed:     out.Crashed,
		DetectedBy:  fmt.Sprint(out.DetectedBy),
		Activations: out.Activations,
	}
}

// TestEnginesAgreeProperty is the sweep-soundness property test: over
// randomized defect libraries and seeds on both Parwan busses and on the
// 16-wire scripted bus, a single-defect RunDefect (the batched engine over a
// library of one) must return exactly the Outcome the Execute oracle (full
// per-session CPU execution) returns, without ever running the Execute tier
// itself: every run is a sweep clearance or a resumed-execution fallback.
func TestEnginesAgreeProperty(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wide := target.MustWideBus(16)
	widePlan, err := wide.Generate(target.GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	wideModels, err := wide.BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	parwanRunner := func(t *testing.T) *Runner {
		r, err := NewRunner(plan, addr, data)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	wideRunner := func(t *testing.T) *Runner {
		r, err := NewTargetRunner(wide, widePlan, wideModels)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cases := []struct {
		name   string
		runner func(*testing.T) *Runner
		bus    core.BusID
		setup  BusSetup
		sigma  float64
		seed   int64
	}{
		{"addr", parwanRunner, core.AddrBus, addr, 0.30, 101},
		{"addr", parwanRunner, core.AddrBus, addr, 0.45, 202},
		{"data", parwanRunner, core.DataBus, data, 0.30, 303},
		{"data", parwanRunner, core.DataBus, data, 0.45, 404},
		{wide.Name(), wideRunner, 0, wideModels[0], 0.30, 505},
		{wide.Name(), wideRunner, 0, wideModels[0], 0.45, 606},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/sigma%.2f/seed%d", c.name, c.sigma, c.seed), func(t *testing.T) {
			lib, err := defects.Generate(c.setup.Nominal, c.setup.Thresholds,
				defects.Config{Size: 12, Sigma: c.sigma, Seed: c.seed})
			if err != nil {
				t.Fatal(err)
			}
			// Library defects are all detectable by construction; add raw
			// perturbations (detectable or not) so the sweep-clean path is
			// exercised as well as the fallback path.
			params := make([]*crosstalk.Params, 0, 2*len(lib.Defects))
			for _, d := range lib.Defects {
				params = append(params, d.Params)
			}
			rng := rand.New(rand.NewSource(c.seed ^ 0x5eed))
			for i := 0; i < 12; i++ {
				params = append(params, defects.Perturb(c.setup.Nominal, c.sigma/2, rng))
			}
			ref, r := c.runner(t), c.runner(t)
			sawReplayed, sawFallback := false, false
			for i, p := range params {
				exec, err := ref.RunDefectEngine(c.bus, p, Execute)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.RunDefect(c.bus, p)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := comparableOf(got), comparableOf(exec); !reflect.DeepEqual(g, w) {
					t.Errorf("defect %d: batch %+v != execute %+v", i, g, w)
				}
				if got.Replayed {
					sawReplayed = true
					if got.Detected || got.Activations != 0 {
						t.Errorf("defect %d: sweep-cleared defect has detected=%v activations=%d",
							i, got.Detected, got.Activations)
					}
				} else {
					sawFallback = true
				}
			}
			st := r.Stats()
			if st.Executes != 0 || st.DegradedExecutes != 0 {
				t.Errorf("single-defect runs reached the Execute tier: %+v", st)
			}
			if n := int64(len(params)); st.ReplayHits+st.Fallbacks != n {
				t.Errorf("replayHits %d + fallbacks %d != %d runs", st.ReplayHits, st.Fallbacks, n)
			}
			if !sawReplayed || !sawFallback {
				t.Logf("coverage note: replayed=%v fallback=%v (both paths ideally exercised)",
					sawReplayed, sawFallback)
			}
		})
	}
}

// TestEngineStatsAccounting checks the sweep/fallback/execute counters add
// up across campaigns.
func TestEngineStatsAccounting(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{SkipAddrBus: true})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(data.Nominal, data.Thresholds, defects.Config{Size: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CampaignCtx(context.Background(), core.DataBus, lib, CampaignOpts{Engine: Batch}); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.ReplayHits+st.Fallbacks != int64(len(lib.Defects)) {
		t.Errorf("batch: replayHits %d + fallbacks %d != %d defects",
			st.ReplayHits, st.Fallbacks, len(lib.Defects))
	}
	if st.Executes != 0 {
		t.Errorf("batch: unexpected executes=%d", st.Executes)
	}
	if st.MemoHits+st.MemoMisses == 0 {
		t.Error("batch: no memo traffic recorded")
	}

	r2, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.CampaignCtx(context.Background(), core.DataBus, lib, CampaignOpts{Engine: Execute}); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Executes != int64(len(lib.Defects)) || st.ReplayHits != 0 || st.Fallbacks != 0 {
		t.Errorf("execute: stats = %+v", st)
	}
}

// TestFig11EngineEquivalence checks the parallelized, engine-driven Fig. 11
// campaign returns the same coverage series under every engine that is
// exact, and the same series the serial implementation produced.
func TestFig11EngineEquivalence(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(data.Nominal, data.Thresholds, defects.Config{Size: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Fig11CampaignCtx(context.Background(), addr, data, core.DataBus, lib, true, CampaignOpts{Engine: Batch})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := Fig11CampaignCtx(context.Background(), addr, data, core.DataBus, lib, true, CampaignOpts{Engine: Execute})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, exec) {
		t.Errorf("Fig11 batch series %+v != execute series %+v", batch, exec)
	}
}
