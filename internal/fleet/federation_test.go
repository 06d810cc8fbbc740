package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// TestFederationEndpoints drives the federation's HTTP surface end to end:
// two workers push their registry snapshots through the heartbeat body
// (the real POST /v1/fleet/workers path), and the coordinator serves the
// fleet-wide /metrics (linted, worker-labeled, byte-stable under permuted
// push order), /fleet/status, and /healthz staleness facts.
func TestFederationEndpoints(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Minute})
	ts := httptest.NewServer(NewCoordinatorServer(coord))
	t.Cleanup(ts.Close)

	// Two worker-shaped registries with real campaign traffic in their
	// counters and histograms.
	spec := campaign.Spec{Bus: "addr", Size: 40, Seed: 3, TargetOnly: true}
	snaps := make(map[string]*obs.Snapshot, 2)
	urls := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		mgr := campaign.New(campaign.Config{Workers: 2})
		if _, _, err := mgr.RunShard(context.Background(), spec, 0, 40); err != nil {
			t.Fatal(err)
		}
		url := fmt.Sprintf("http://worker-%d:8080", i)
		urls = append(urls, url)
		snaps[url] = mgr.Obs().Reg.Snapshot()
	}

	push := func(url string) {
		t.Helper()
		body, err := json.Marshal(RegisterRequest{URL: url, Metrics: snaps[url]})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/fleet/workers", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: status %d", url, resp.StatusCode)
		}
	}
	scrape := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	push(urls[0])
	push(urls[1])
	first := scrape("/metrics")
	if err := obs.LintExposition(bytes.NewReader(first)); err != nil {
		t.Fatalf("federated /metrics lint: %v\n%s", err, first)
	}
	text := string(first)
	for _, url := range urls {
		for _, family := range []string{
			"xtalkd_fleet_defects_simulated_total",
			"xtalkd_fleet_workers",
			"xtalkd_fleet_jobs_pending",
		} {
			want := fmt.Sprintf("%s{worker=%q}", family, url)
			if !strings.Contains(text, want) {
				t.Errorf("federated metrics missing %s:\n%s", want, text)
			}
		}
	}
	// The coordinator's own families survive the merge alongside the
	// relabeled worker series of the same gauge.
	if !strings.Contains(text, "xtalkd_fleet_workers 2\n") {
		t.Errorf("federated metrics missing the coordinator's own worker gauge:\n%s", text)
	}

	// Byte stability: re-pushing the identical snapshots in the opposite
	// order must render the identical exposition.
	push(urls[1])
	push(urls[0])
	if second := scrape("/metrics"); !bytes.Equal(first, second) {
		t.Fatalf("federated exposition changed under permuted push order:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}

	var st FleetStatus
	if err := json.Unmarshal(scrape("/fleet/status"), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 2 || st.WorkersAlive != 2 {
		t.Fatalf("fleet status = %+v, want 2 alive workers", st)
	}
	for i, w := range st.Workers {
		if w.URL != urls[i] {
			t.Fatalf("worker %d = %s, want %s (sorted by URL)", i, w.URL, urls[i])
		}
		if !w.Scraped || !w.Alive {
			t.Fatalf("worker %s = %+v, want alive and scraped", w.URL, w)
		}
		if w.Slots != 2 {
			t.Fatalf("worker %s slots = %d, want 2 (from its pushed snapshot)", w.URL, w.Slots)
		}
	}
	if st.Alerts == nil {
		t.Fatal("fleet status has no alert summary")
	}

	var h campaign.Health
	if err := json.Unmarshal(scrape("/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Facts["alerts"]; !ok {
		t.Fatalf("healthz facts lack the alerts block: %v", h.Facts)
	}
	stale, ok := h.Facts["scrape_staleness_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("healthz facts lack scrape staleness: %v", h.Facts)
	}
	for _, url := range urls {
		if _, ok := stale[url]; !ok {
			t.Fatalf("scrape staleness missing %s: %v", url, stale)
		}
	}

	var alerts struct {
		Alerts  []obs.Alert    `json:"alerts"`
		Summary map[string]int `json:"summary"`
	}
	if err := json.Unmarshal(scrape("/alerts"), &alerts); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range alerts.Alerts {
		if a.Name == "shard_roundtrip" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/alerts lacks the shard_roundtrip objective: %+v", alerts.Alerts)
	}
}

// TestIngestMetricsErrors pins the failure modes: unregistered workers and
// malformed snapshots are rejected — directly and as a 400 on the heartbeat
// route — and a bad push does not clobber the previous good snapshot.
func TestIngestMetricsErrors(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Minute})
	ts := httptest.NewServer(NewCoordinatorServer(coord))
	t.Cleanup(ts.Close)

	reg := obs.NewRegistry()
	reg.Counter("xtalkd_thing_total", "t.").Add(5)
	if err := coord.IngestMetrics("http://nobody:1", reg.Snapshot()); err == nil {
		t.Fatal("ingest for an unregistered worker succeeded")
	}
	coord.Register("http://w:1")
	if err := coord.IngestMetrics("http://w:1", reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	malformed := &obs.Snapshot{Families: map[string]*obs.Family{
		"xtalkd_job_seconds": {Kind: "histogram", Series: []obs.SeriesValue{
			{Hist: &obs.HistValue{Bounds: []float64{1, 2}, Counts: []int64{1, 1}}},
		}},
	}}
	if err := coord.IngestMetrics("http://w:1", malformed); err == nil {
		t.Fatal("malformed snapshot ingested without error")
	}
	body, err := json.Marshal(RegisterRequest{URL: "http://w:1", Metrics: malformed})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{
		string(body),
		`{"url":"http://w:1","metrics":"# HELP x x\n# TYPE x counter\nx 1\n"}`,
		`{"url":"http://w:1","metrics":{"families":{"xtalkd_x":{"kind":"matrix"}}}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/fleet/workers", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("heartbeat with malformed metrics %s: status %d, want 400", payload, resp.StatusCode)
		}
	}
	snaps := coord.workerSnapshots()
	if v, ok := snaps["http://w:1"].Value("xtalkd_thing_total", ""); !ok || v != 5 {
		t.Fatalf("bad push clobbered the previous snapshot: %v %v", v, ok)
	}
}

// TestRegisterBodyBound proves the heartbeat route reads at most
// maxRegisterBytes: an oversized body is rejected before the worker is
// registered.
func TestRegisterBodyBound(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Minute})
	ts := httptest.NewServer(NewCoordinatorServer(coord))
	t.Cleanup(ts.Close)
	help := strings.Repeat("x", maxRegisterBytes)
	body, err := json.Marshal(RegisterRequest{URL: "http://big:1", Metrics: &obs.Snapshot{
		Families: map[string]*obs.Family{"xtalkd_big": {Help: help, Kind: "gauge"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/fleet/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized heartbeat: status %d, want 413", resp.StatusCode)
	}
	if ws := coord.Workers(); len(ws) != 0 {
		t.Fatalf("oversized heartbeat registered workers: %+v", ws)
	}
}

// pinWorkerRegistry builds one fixture worker's registry from real RunShard
// traffic: deterministic facts about the shard's outcomes (no timings, no
// memo counters, which vary with scheduling) in every series shape the
// renderer distinguishes — Counter and CounterFunc values past 1e6, a
// fractional GaugeFunc, labeled counters, histograms with custom and
// default bounds, and a label value and help text that need escaping.
func pinWorkerRegistry(t *testing.T, i int) *obs.Registry {
	t.Helper()
	spec := campaign.Spec{Bus: "addr", Size: 40, Seed: int64(3 + i), TargetOnly: true, Engine: "batch"}
	mgr := campaign.New(campaign.Config{Workers: 1})
	outs, stats, err := mgr.RunShard(context.Background(), spec, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var detected, crashed, activations int64
	acts := reg.Histogram("xtalkd_defect_activations", "crosstalk events per defect run",
		[]float64{1, 10, 100, 1000, 1e4}, obs.Label{Key: "bus", Value: spec.Bus})
	secs := reg.Histogram("xtalkd_defect_seconds", "activations scaled to seconds", nil)
	for _, out := range outs {
		if out.Detected {
			detected++
		}
		if out.Crashed {
			crashed++
		}
		activations += int64(out.Activations)
		acts.Observe(float64(out.Activations))
		secs.Observe(float64(out.Activations) * 1e-4)
	}
	reg.Counter("xtalkd_defects_simulated_total", "defect runs completed").Add(int64(len(outs)))
	reg.Counter("xtalkd_defects_detected_total", "defects detected", obs.Label{Key: "bus", Value: spec.Bus}).Add(detected)
	reg.Counter("xtalkd_defects_detected_total", "defects detected", obs.Label{Key: "bus", Value: "data"})
	reg.Counter("xtalkd_defects_crashed_total", "defects that crashed a session").Add(crashed)
	reg.Counter("xtalkd_activations_scaled_total", "activations scaled past 1e6").Add(1_000_000 * (activations + 1))
	reg.CounterFunc("xtalkd_activations_func_total", "activations as a func counter",
		func() float64 { return float64(1_000_000 * (activations + 1)) })
	reg.CounterFunc("xtalkd_engine_fallbacks_total", "engine fallbacks",
		func() float64 { return float64(stats.Fallbacks) })
	reg.CounterFunc("xtalkd_engine_batch_sweeps_total", "engine sweeps",
		func() float64 { return float64(stats.BatchSweeps) })
	reg.Gauge("xtalkd_workers", "worker slots").Set(2)
	reg.GaugeFunc("xtalkd_crash_ratio", "crashed over simulated",
		func() float64 { return float64(crashed) / float64(len(outs)) })
	reg.Gauge("xtalkd_fixture_info", "escaping \\ and\nnewline in help",
		obs.Label{Key: "note", Value: "a \"quoted\" \\ value\nnext"}).Set(int64(i + 1))
	return reg
}

// TestFederatedMetricsPinned pins the coordinator's federated /metrics
// bytes for a fixed fixture — a coordinator with its own Counter and
// CounterFunc past 1e6, plus two workers heartbeating registries built from
// real RunShard traffic — to the hash the text-exposition transport
// produced, so the typed heartbeat transport is proven byte-identical
// end to end.
func TestFederatedMetricsPinned(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Hour})
	reg := coord.Obs().Reg
	reg.Counter("xtalkd_fleet_fixture_big_total", "a counter past 1e6").Add(1_000_000)
	reg.CounterFunc("xtalkd_fleet_fixture_big_func_total", "a func counter past 1e6",
		func() float64 { return 2e6 })
	ts := httptest.NewServer(NewCoordinatorServer(coord))
	t.Cleanup(ts.Close)
	for i := 0; i < 2; i++ {
		body, err := json.Marshal(RegisterRequest{
			URL:     fmt.Sprintf("http://worker-%d:8080", i),
			Metrics: pinWorkerRegistry(t, i).Snapshot(),
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/fleet/workers", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register worker %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"xtalkd_fleet_fixture_big_total 1000000\n",
		"xtalkd_fleet_fixture_big_func_total 2e+06\n",
		`xtalkd_fleet_activations_scaled_total{worker="http://worker-0:8080"} 188000000` + "\n",
		`xtalkd_fleet_activations_func_total{worker="http://worker-0:8080"} 1.88e+08` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federated metrics lack %q:\n%s", want, text)
		}
	}
	if err := obs.LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("federated /metrics lint: %v", err)
	}
	const want = "67a5cebea8a728b59215cd2bc7d3e405fd7b6c99cf5b0fa00d5ed913bdac5a08"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("federated /metrics hash %s, want %s:\n%s", got, want, text)
	}
}
