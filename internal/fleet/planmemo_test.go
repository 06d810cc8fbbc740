package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// TestMemoShardKeyMatchesUncached checks that the memoized shard key a
// coordinator and a worker derive equals the uncached SpecShardKey, on the
// generating call, on a hit, and for an inline plan.
func TestMemoShardKeyMatchesUncached(t *testing.T) {
	spec := campaign.Spec{Bus: "data", Size: 50, Seed: 4}
	plan, err := campaign.SpecPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	inline := spec
	inline.Plan = buf.Bytes()
	coord := NewCoordinator(CoordinatorConfig{})
	mgr := campaign.New(campaign.Config{Workers: 1})
	for _, s := range []campaign.Spec{spec, spec, inline} {
		want, err := SpecShardKey(s, 4)
		if err != nil {
			t.Fatal(err)
		}
		for name, memo := range map[string]*campaign.PlanMemo{"coordinator": coord.plans, "worker": mgr.Plans()} {
			got, err := specShardKey(s, 4, memo.Hash)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s memo key %s, uncached %s (inline=%v)", name, got, want, len(s.Plan) > 0)
			}
		}
	}
}

// TestFleetPlanMemoSteadyState runs E5-shaped fleet requests (addr and data
// jobs sharing one generation config): each worker generates the plan once,
// on its first shard, and a steady-state request generates none while its
// report stays byte-identical to a single-node run.
func TestFleetPlanMemoSteadyState(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{Backoff: 5 * time.Millisecond})
	var mgrs []*campaign.Manager
	for i := 0; i < 2; i++ {
		m := campaign.New(campaign.Config{Workers: 1})
		ts := httptest.NewServer(NewWorker(m))
		t.Cleanup(ts.Close)
		coord.Register(ts.URL)
		mgrs = append(mgrs, m)
	}
	request := func(seed int64) {
		t.Helper()
		for _, bus := range []string{"addr", "data"} {
			spec := campaign.Spec{Bus: bus, Size: 40, Seed: seed, Engine: "batch"}
			got, _ := fleetJSON(t, coord, spec, 4)
			if want := singleNodeJSON(t, spec); !bytes.Equal(got, want) {
				t.Fatalf("seed %d %s: fleet JSON differs from single-node run", seed, bus)
			}
		}
	}
	request(1)
	for i, m := range mgrs {
		if mt := m.Metrics(); mt.PlanCacheMisses != 1 {
			t.Fatalf("worker %d generated %d plans in the first request, want 1", i, mt.PlanCacheMisses)
		}
	}
	request(2)
	for i, m := range mgrs {
		mt := m.Metrics()
		if mt.PlanCacheMisses != 1 {
			t.Errorf("worker %d generated %d plans over two requests, want 1", i, mt.PlanCacheMisses)
		}
		// Every shard resolves twice (key check, RunShard); all but the
		// first resolution hit.
		if want := 2*mt.ShardsServed - 1; mt.PlanCacheHits != want {
			t.Errorf("worker %d: %d plan hits for %d shards, want %d", i, mt.PlanCacheHits, mt.ShardsServed, want)
		}
	}
	if hits, misses := coord.plans.Stats(); misses != 1 || hits != 3 {
		t.Errorf("coordinator plan memo: %d hits, %d misses; want 3 and 1", hits, misses)
	}
}

// TestSpecBodyBounds checks that the shard and fleet-campaign routes bound
// their bodies: oversized is 413, malformed is 400, and neither runs work.
func TestSpecBodyBounds(t *testing.T) {
	m := campaign.New(campaign.Config{Workers: 1})
	worker := httptest.NewServer(NewWorker(m))
	t.Cleanup(worker.Close)
	coord := NewCoordinator(CoordinatorConfig{})
	coord.Register(worker.URL)
	cs := httptest.NewServer(NewCoordinatorServer(coord))
	t.Cleanup(cs.Close)
	big := `{"spec":{"bus":"addr","plan":"` + strings.Repeat("x", campaign.MaxSpecBytes) + `"}}`
	for _, url := range []string{worker.URL + "/v1/fleet/shards", cs.URL + "/v1/fleet/campaigns"} {
		for body, want := range map[string]int{
			big:                 http.StatusRequestEntityTooLarge,
			`{"spec":{"bus":"a`: http.StatusBadRequest,
		} {
			resp, err := http.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("POST %s with a %d-byte body: status %d, want %d", url, len(body), resp.StatusCode, want)
			}
		}
	}
	if mt := m.Metrics(); mt.ShardsServed != 0 || mt.PlanCacheMisses != 0 {
		t.Errorf("rejected bodies reached the worker: %+v", mt)
	}
	if mt := coord.Metrics(); mt.Campaigns != 0 {
		t.Errorf("rejected bodies started %d fleet campaigns", mt.Campaigns)
	}
}
