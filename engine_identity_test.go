// Enforces the engines' headline guarantee: a campaign run under the
// batched engine — spelled "auto" or "batch" — renders byte-identical
// CampaignResult JSON to the execute-only reference engine for the full E5
// campaign on both busses.
package repro_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/parwan"
	"repro/internal/report"
	"repro/internal/sim"
)

func TestEngineByteIdentityE5(t *testing.T) {
	size := 1000 // the paper's library size
	if testing.Short() {
		size = 120
	}
	addr, data, err := sim.DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	busses := []struct {
		name  string
		bus   core.BusID
		setup sim.BusSetup
		seed  int64
		width int
	}{
		{"addr", core.AddrBus, addr, 3001, parwan.AddrBits},
		{"data", core.DataBus, data, 3002, parwan.DataBits},
	}
	for _, bc := range busses {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			lib, err := defects.Generate(bc.setup.Nominal, bc.setup.Thresholds,
				defects.Config{Size: size, Seed: bc.seed})
			if err != nil {
				t.Fatal(err)
			}
			render := func(eng sim.Engine) []byte {
				res, err := r.CampaignCtx(context.Background(), bc.bus, lib,
					sim.CampaignOpts{Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := report.WriteCampaignJSON(&buf, res, bc.width); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			exec := render(sim.Execute)
			for _, name := range []string{"auto", "batch"} {
				eng, err := sim.ParseEngine(name)
				if err != nil {
					t.Fatal(err)
				}
				before := r.Stats()
				got := render(eng)
				after := r.Stats()
				if !bytes.Equal(exec, got) {
					for i := 0; i < len(exec) && i < len(got); i++ {
						if exec[i] != got[i] {
							lo, hi := i-80, i+80
							if lo < 0 {
								lo = 0
							}
							if hi > len(exec) {
								hi = len(exec)
							}
							t.Fatalf("campaign JSON diverges at byte %d:\nexecute: %s\n%-8s %s",
								i, exec[lo:hi], name+":", got[lo:min(hi, len(got))])
						}
					}
					t.Fatalf("campaign JSON lengths differ: execute %d, %s %d", len(exec), name, len(got))
				}
				// The batched sweep must keep the whole library out of the
				// full Execute tier: clean defects are screened in O(1),
				// divergent ones resume execution as fallbacks, and nothing
				// else runs.
				if d := after.Executes - before.Executes; d != 0 {
					t.Errorf("%s campaign performed %d full Execute runs, want 0", name, d)
				}
				screened := after.BatchScreened - before.BatchScreened
				fallbacks := after.Fallbacks - before.Fallbacks
				if screened+fallbacks != int64(size) {
					t.Errorf("%s accounting: screened %d + fallbacks %d != %d defects",
						name, screened, fallbacks, size)
				}
				if sweeps := after.BatchSweeps - before.BatchSweeps; sweeps != int64(len(plan.Programs)) {
					t.Errorf("%s performed %d sweeps, want one per session (%d)",
						name, sweeps, len(plan.Programs))
				}
				t.Logf("%s bus, %s: %d defects, %d bytes of campaign JSON byte-identical to execute (%d batch-screened)",
					bc.name, name, size, len(exec), screened)
			}
		})
	}
}
