package main

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/defects"
	"repro/internal/fleet"
	"repro/internal/infield"
	"repro/internal/report"
)

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func serve(t *testing.T, w workload, seed int64) []jobReport {
	t.Helper()
	svc, err := newService(w)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	reps, err := svc.request(context.Background(), w, w.specs(seed), false)
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// TestCheckCatchesFlippedByte serves the e5 check-seed request, shows its
// reports pass the check, and shows that one flipped byte anywhere in a
// report fails the request and counts in the run's failures.
func TestCheckCatchesFlippedByte(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, "e5")
	reps := serve(t, w, g.CheckSeed)
	tl := &tally{g: g, w: w}
	if !tl.add(reps, nil) {
		t.Fatalf("check-seed request failed its checks: %v", tl.failures)
	}
	for _, at := range []int{0, len(reps[0].body) / 2, len(reps[0].body) - 2} {
		bad := append([]jobReport(nil), reps...)
		bad[0].body = append([]byte(nil), reps[0].body...)
		bad[0].body[at] ^= 1
		before := len(tl.failures)
		if tl.add(bad, nil) {
			t.Errorf("report with byte %d flipped passed the check", at)
		}
		if len(tl.failures) != before+1 {
			t.Errorf("flip at %d: %d failures recorded, want %d", at, len(tl.failures), before+1)
		}
	}
	if tl.attempted != 4 || len(tl.failures) != 3 {
		t.Errorf("attempted %d, failed %d; want 4 and 3", tl.attempted, len(tl.failures))
	}
}

// TestDriftTrailerFailsRequest appends a drift verdict to a served
// in-field report; an ok verdict passes, a drift verdict fails.
func TestDriftTrailerFailsRequest(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, "e5-infield")
	rep := serve(t, w, newSeedGen(w, 1).next())[0]
	if _, err := g.checkReport(w, rep.spec, rep.body); err != nil {
		t.Fatalf("served report failed its check: %v", err)
	}
	for verdict, wantErr := range map[string]bool{infield.VerdictOK: false, infield.VerdictDrift: true} {
		line, err := json.Marshal(report.InfieldDriftJSON{Kind: "drift",
			DriftReport: infield.DriftReport{Verdict: verdict, Reasons: []string{"test"}}})
		if err != nil {
			t.Fatal(err)
		}
		body := append(append([]byte(nil), rep.body...), append(line, '\n')...)
		_, err = g.checkReport(w, rep.spec, body)
		if (err != nil) != wantErr {
			t.Errorf("verdict %q: check error %v, want error %v", verdict, err, wantErr)
		}
	}
}

// TestGoldenIsExecuteReference re-renders the check-seed reports with the
// execute reference engine and compares them with the recorded hashes.
func TestGoldenIsExecuteReference(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every check-seed report with the execute engine")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	got, err := referenceHashes(g.CheckSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, g.Reports) {
		t.Errorf("execute engine hashes %v, golden.json %v", got, g.Reports)
	}
}

// TestSeedPicksInputs: the workload seed alone picks the spec sequence, and
// another seed gives other libraries.
func TestSeedPicksInputs(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	seq := func(w workload, seed int64) [][]campaign.Spec {
		gen := newSeedGen(w, seed)
		var out [][]campaign.Spec
		for i := 0; i < 5; i++ {
			out = append(out, w.specs(gen.next()))
		}
		return out
	}
	for _, w := range workloads {
		a, b, other := seq(w, 7), seq(w, 7), seq(w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two spec sequences", w.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same spec sequence", w.name)
		}
		for _, specs := range append(a, other...) {
			for _, s := range specs {
				if s.Seed == g.CheckSeed || s.Seed == g.HeldOutSeed {
					t.Errorf("%s: window spec uses reserved seed %d", w.name, s.Seed)
				}
				if s.Engine != "batch" || s.Size != 0 || s.Sigma != 0 {
					t.Errorf("%s: spec %+v is not a default batch-engine library", w.name, s)
				}
			}
		}
		fresh := map[int64]bool{}
		for _, specs := range a {
			fresh[specs[0].Seed] = true
		}
		if want := !w.fixedSeed; (len(fresh) == len(a)) != want {
			t.Errorf("%s: %d distinct library seeds in %d requests", w.name, len(fresh), len(a))
		}
	}

	w := mustWorkload(t, "e5")
	lib := func(seed int64) *defects.Library {
		spec := w.specs(newSeedGen(w, seed).next())[0].Normalized()
		_, models, err := setup(spec)
		if err != nil {
			t.Fatal(err)
		}
		bm := models[spec.BusID()]
		l, err := defects.Generate(bm.Nominal, bm.Thresholds,
			defects.Config{Size: spec.Size, Sigma: spec.Sigma, Seed: spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if reflect.DeepEqual(lib(7).Defects, lib(8).Defects) {
		t.Error("seeds 7 and 8 generated the same defect library")
	}
}

// TestShardKeyMatchesFleet: the traced replay's decomposed shard key is the
// key fleet.SpecShardKey computes.
func TestShardKeyMatchesFleet(t *testing.T) {
	r := newReplay(mustWorkload(t, "e5-fleet"), newTracer())
	root := r.tr.begin(nil, "request")
	for _, w := range workloads {
		for _, spec := range w.specs(42) {
			want, err := fleet.SpecShardKey(spec, fleetShards)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.shardKey(root, spec, fleetShards)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%s: replay key %s, fleet key %s", w.name, spec.Bus, got, want)
			}
		}
	}
}

// TestSelfTimesSumToWall: self times subtract only direct children, and
// with the root's own self time they sum to the request's wall.
func TestSelfTimesSumToWall(t *testing.T) {
	tr := newTracer()
	root := tr.begin(nil, "request")
	key := tr.begin(root, "fleet.shard_key")
	tr.add(key, "core.plan", 10, 40)
	tr.add(key, "campaign.plan_hash", 40, 45)
	key.Start, key.End = 5, 50
	tr.add(root, "sim.merge", 60, 90)
	root.Start, root.End = 0, 100
	tr.begin(nil, "request") // a second request stays out of the first's sums

	self, wall := tr.selfTimes(root.Req)
	want := map[string]int64{"request": 25, "fleet.shard_key": 10, "core.plan": 30, "campaign.plan_hash": 5, "sim.merge": 30}
	if !reflect.DeepEqual(self, want) || wall != 100 {
		t.Errorf("self times %v wall %d, want %v wall 100", self, wall, want)
	}
}

// TestSummarizeMatchesPythonQuantiles pins the quartiles to Python's
// statistics.quantiles(data, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want summary
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, summary{N: 10, Q1: 2.75, Median: 5.5, Q3: 8.25}},
		{[]float64{1, 2, 3, 4, 5}, summary{N: 5, Q1: 1.5, Median: 3, Q3: 4.5}},
		{[]float64{4, 1}, summary{N: 2, Q1: 0.25, Median: 2.5, Q3: 4.75}},
	} {
		if got := summarize(c.in); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}
