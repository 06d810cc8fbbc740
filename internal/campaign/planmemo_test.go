package campaign

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/target"
)

// TestPlanMemoMatchesUncached is the differential table: for every
// generation config, the memoized (plan, hash) — on the generating call and
// on a later hit — equals an uncached SpecPlan + PlanHash.
func TestPlanMemoMatchesUncached(t *testing.T) {
	for _, c := range []struct {
		target string
		buses  []string
		// entries is the distinct generation configs of the group: parwan's
		// buses share every config that is not target-only.
		entries int64
	}{
		{"", []string{"addr", "data"}, 2 * 3 * (1 + 2)},
		{"widebus16", []string{"bus"}, 2 * 3 * 2},
		{"widebus64", []string{"bus"}, 2 * 3 * 2},
	} {
		var specs []Spec
		for _, bus := range c.buses {
			for _, compaction := range []bool{false, true} {
				for _, sessions := range []int{0, 1, 4} {
					for _, only := range []bool{false, true} {
						specs = append(specs, Spec{Target: c.target, Bus: bus, Compaction: compaction,
							MaxSessions: sessions, TargetOnly: only, Seed: 1})
					}
				}
			}
		}
		pm := NewPlanMemo()
		for _, spec := range specs {
			name := fmt.Sprintf("%s/%s/compaction=%v/sessions=%d/only=%v",
				spec.TargetName(), spec.Bus, spec.Compaction, spec.MaxSessions, spec.TargetOnly)
			want, err := SpecPlan(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wantHash, err := PlanHash(want)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for pass := 0; pass < 2; pass++ {
				plan, hash, _, err := pm.Resolve(spec)
				if err != nil {
					t.Fatalf("%s pass %d: %v", name, pass, err)
				}
				if hash != wantHash {
					t.Errorf("%s pass %d: memo hash %s, uncached %s", name, pass, hash, wantHash)
				}
				if got, err := PlanHash(plan); err != nil || got != hash {
					t.Errorf("%s pass %d: memo plan hashes to %s (err %v), memo says %s", name, pass, got, err, hash)
				}
				if !reflect.DeepEqual(plan, want) {
					t.Errorf("%s pass %d: memo plan differs from uncached SpecPlan", name, pass)
				}
			}
		}
		if hits, misses := pm.Stats(); misses != c.entries || hits != int64(2*len(specs))-c.entries {
			t.Errorf("%s: memo stats %d hits, %d misses over %d specs; want %d misses",
				specs[0].TargetName(), hits, misses, len(specs), c.entries)
		}
	}
}

// TestPlanMemoKeyCompleteness pins which spec fields reach the memo key:
// specs that differ only outside the generation config share one entry, and
// specs that differ in any generation field do not. A field added to
// target.GenSpec must reach genSpec and planKey, so its addition fails here
// first.
func TestPlanMemoKeyCompleteness(t *testing.T) {
	var fields []string
	for i, typ := 0, reflect.TypeOf(target.GenSpec{}); i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	sort.Strings(fields)
	if want := []string{"Compaction", "Filter", "MaxSessions", "OnlyChannel"}; !reflect.DeepEqual(fields, want) {
		t.Fatalf("target.GenSpec fields %v, planKey covers %v: extend genSpec and planKey", fields, want)
	}

	base := Spec{Target: "widebus16", Bus: "bus", Seed: 1}
	shared := []func(*Spec){
		func(s *Spec) { s.Seed = 7 },
		func(s *Spec) { s.Size = 33 },
		func(s *Spec) { s.Sigma = 0.3 },
		func(s *Spec) { s.CthFactor = 1.4 },
		func(s *Spec) { s.Engine = "execute" },
		func(s *Spec) { s.Type = TypeRank },
		func(s *Spec) { s.Workers = 3 },
	}
	distinct := []func(*Spec){
		func(s *Spec) { s.Target = "widebus32" },
		func(s *Spec) { s.Compaction = true },
		func(s *Spec) { s.MaxSessions = 2 },
		func(s *Spec) { s.TargetOnly = true },
		func(s *Spec) { s.Target, s.Bus = "", "addr" },
	}
	pm := NewPlanMemo()
	first, _, _, err := pm.Resolve(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, mut := range shared {
		spec := base
		mut(&spec)
		plan, _, cached, err := pm.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !cached || plan != first {
			t.Errorf("shared[%d] %+v: cached=%v, same plan=%v; want the base entry", i, spec, cached, plan == first)
		}
	}
	for i, mut := range distinct {
		spec := base
		mut(&spec)
		if _, _, cached, err := pm.Resolve(spec); err != nil || cached {
			t.Errorf("distinct[%d] %+v: cached=%v err=%v; want its own entry", i, spec, cached, err)
		}
	}
	if n := pm.entries.len(); n != 1+len(distinct) {
		t.Errorf("memo holds %d entries, want %d", n, 1+len(distinct))
	}
	// Inline plans bypass the memo entirely.
	var buf bytes.Buffer
	if err := core.WritePlan(&buf, first); err != nil {
		t.Fatal(err)
	}
	inline := base
	inline.Plan = buf.Bytes()
	hitsBefore, missesBefore := pm.Stats()
	if _, _, cached, err := pm.Resolve(inline); err != nil || cached {
		t.Errorf("inline plan: cached=%v err=%v", cached, err)
	}
	if hits, misses := pm.Stats(); hits != hitsBefore || misses != missesBefore {
		t.Errorf("inline plan moved the memo counters: %d/%d -> %d/%d", hitsBefore, missesBefore, hits, misses)
	}
}

// TestRunShardSingleGeneration sends 16 concurrent shards of one campaign to
// a fresh manager: they wait on a single plan generation, golden-runner
// build and library generation, and the merged outcomes equal a cold
// execute-engine run's.
func TestRunShardSingleGeneration(t *testing.T) {
	spec := Spec{Bus: "addr", Size: 64, Seed: 5, TargetOnly: true, Engine: "batch"}
	const shards = 16
	m := New(Config{Workers: 2})
	results := make([]sim.OutcomeShard, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start, end := i*spec.Size/shards, (i+1)*spec.Size/shards
			outs, _, err := m.RunShard(context.Background(), spec, start, end)
			if err != nil {
				t.Errorf("shard %d: %v", i, err)
				return
			}
			results[i] = sim.OutcomeShard{Start: start, Outcomes: outs}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if mt := m.Metrics(); mt.PlanCacheMisses != 1 || mt.PlanCacheHits != shards-1 {
		t.Errorf("plan cache: %d misses, %d hits; want 1 and %d", mt.PlanCacheMisses, mt.PlanCacheHits, shards-1)
	} else if mt.GoldenCacheMisses != 1 || mt.LibraryCacheMisses != 1 {
		t.Errorf("golden/library cache misses %d/%d, want 1/1", mt.GoldenCacheMisses, mt.LibraryCacheMisses)
	}
	got, err := sim.MergeOutcomes(spec.busID(), spec.Size, results)
	if err != nil {
		t.Fatal(err)
	}

	cold := spec
	cold.Engine = "execute"
	outs, _, err := New(Config{Workers: 2}).RunShard(context.Background(), cold, 0, cold.Size)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.MergeOutcomes(spec.busID(), spec.Size, []sim.OutcomeShard{{Start: 0, Outcomes: outs}})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := spec.backend()
	if err != nil {
		t.Fatal(err)
	}
	width := tgt.Topology().Channels[spec.busID()].Width
	if !bytes.Equal(renderJSON(t, got, width), renderJSON(t, want, width)) {
		t.Fatal("concurrent memoized shards differ from a cold execute-engine run")
	}
}

// TestPlanMemoCap submits more distinct generation configs than the memo
// holds: it stops growing at the cap, and every job still succeeds.
func TestPlanMemoCap(t *testing.T) {
	m := New(Config{Workers: 2})
	const extra = 3
	var jobs []*Job
	for s := 1; s <= maxPlanMemoEntries+extra; s++ {
		job, err := m.Submit(Spec{Target: "widebus16", Bus: "bus", Size: 8, Seed: 1, MaxSessions: s})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		waitDone(t, job)
		if st := job.Status(); st.State != Done {
			t.Fatalf("job %s (max_sessions %d) ended %s: %s", job.ID(), job.Spec().MaxSessions, st.State, st.Error)
		}
	}
	if n := m.plans.entries.len(); n != maxPlanMemoEntries {
		t.Errorf("memo holds %d entries, want the cap %d", n, maxPlanMemoEntries)
	}
	if mt := m.Metrics(); mt.PlanCacheMisses != maxPlanMemoEntries+extra || mt.PlanCacheHits != 0 {
		t.Errorf("plan cache: %d misses, %d hits; want %d and 0", mt.PlanCacheMisses, mt.PlanCacheHits, maxPlanMemoEntries+extra)
	}
}
