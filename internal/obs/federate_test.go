package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// workerRegistry builds a registry shaped like a campaign worker's: counters,
// a labeled gauge family, and a duration histogram, all with
// deterministically varied values.
func workerRegistry(seed int64) *Registry {
	reg := NewRegistry()
	c := reg.Counter("xtalkd_defects_simulated_total", "Defect runs simulated.")
	c.Add(100 + seed)
	g := reg.Gauge("xtalkd_workers_busy", "Busy pool slots.")
	g.Set(seed % 7)
	for _, eng := range []string{"execute", "replay"} {
		ec := reg.Counter("xtalkd_engine_executes_total", "Full executions.",
			Label{"engine", eng})
		ec.Add(10*seed + int64(len(eng)))
	}
	h := reg.Histogram("xtalkd_job_seconds", "Job wall time.", nil)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 20; i++ {
		// Exactly representable values so float sums commute and associate.
		h.Observe(float64(rng.Intn(1024)) / 256)
	}
	return reg
}

func render(reg *Registry) string {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	return buf.String()
}

// jsonRoundTrip carries reg's snapshot the way a worker heartbeat does —
// encoded to JSON, decoded and validated on the coordinator — and returns
// the received snapshot's rendered exposition.
func jsonRoundTrip(t *testing.T, reg *Registry) string {
	t.Helper()
	js, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(js, &snap); err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := snap.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestParseExpositionRoundTrip proves the heartbeat transport is a
// byte-level identity for a representative worker registry, which is what
// makes single-worker federation lossless. (The name predates the typed
// transport, when the coordinator parsed exposition text back; the
// received snapshot is now decoded from JSON instead.)
func TestParseExpositionRoundTrip(t *testing.T) {
	reg := workerRegistry(3)
	text := render(reg)
	if got := jsonRoundTrip(t, reg); got != text {
		t.Fatalf("round trip differs:\n--- original ---\n%s\n--- round trip ---\n%s", text, got)
	}
}

// TestParseExpositionRawPassthrough proves values keep their spelling across
// the heartbeat transport even where Go's float formatting would differ: a
// Counter at 1e6 renders "1000000" (%d), while a CounterFunc renders
// formatFloat's "2e+06". (The name predates the typed transport, when a
// per-series raw-text passthrough provided this guarantee.)
func TestParseExpositionRawPassthrough(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("xtalkd_big_total", "Big.").Add(1000000)
	reg.CounterFunc("xtalkd_big_func_total", "Big func.", func() float64 { return 2e6 })
	text := render(reg)
	got := jsonRoundTrip(t, reg)
	for _, want := range []string{"xtalkd_big_total 1000000\n", "xtalkd_big_func_total 2e+06\n"} {
		if !strings.Contains(got, want) {
			t.Fatalf("round trip lacks %q:\n%s", want, got)
		}
	}
	if got != text {
		t.Fatalf("round trip differs:\n--- original ---\n%s\n--- round trip ---\n%s", text, got)
	}
}

// TestSnapshotJSONRoundTrip proves the heartbeat transport is lossless for
// everything a registry can hold at once: scalars past 1e6 in both
// spellings, a func-backed gauge, and label values and help text that need
// escaping.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := workerRegistry(3)
	reg.Counter("xtalkd_big_total", "Big.").Add(1000000)
	reg.CounterFunc("xtalkd_big_func_total", "Big func.", func() float64 { return 2e6 })
	reg.GaugeFunc("xtalkd_ratio", "Ratio.", func() float64 { return 0.1 })
	reg.Gauge("xtalkd_escaped", "Escaping \\ and\nnewline.",
		Label{"a", `q"u\o`}, Label{"b", "x\ny"}).Set(-3)
	text := render(reg)
	for _, want := range []string{"xtalkd_big_total 1000000\n", "xtalkd_big_func_total 2e+06\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("registry exposition lacks %q:\n%s", want, text)
		}
	}
	if got := jsonRoundTrip(t, reg); got != text {
		t.Fatalf("round trip differs:\n--- original ---\n%s\n--- round trip ---\n%s", text, got)
	}
}

// TestSnapshotValidateRejects feeds Validate one malformed snapshot per
// rule a peer's heartbeat payload must satisfy.
func TestSnapshotValidateRejects(t *testing.T) {
	one := int64(1)
	scalar := func(labels ...Label) SeriesValue { return SeriesValue{Labels: labels, Int: &one} }
	hist := func(bounds []float64, counts ...int64) SeriesValue {
		return SeriesValue{Hist: &HistValue{Bounds: bounds, Counts: counts}}
	}
	cases := map[string]*Family{
		"unknown kind":        {Kind: "summary", Series: []SeriesValue{scalar()}},
		"counts vs bounds":    {Kind: "histogram", Series: []SeriesValue{hist([]float64{1, 2}, 0, 0)}},
		"descending bounds":   {Kind: "histogram", Series: []SeriesValue{hist([]float64{2, 1}, 0, 0, 0)}},
		"repeated bound":      {Kind: "histogram", Series: []SeriesValue{hist([]float64{1, 1}, 0, 0, 0)}},
		"infinite bound":      {Kind: "histogram", Series: []SeriesValue{hist([]float64{1, math.Inf(1)}, 0, 0, 0)}},
		"NaN bound":           {Kind: "histogram", Series: []SeriesValue{hist([]float64{math.NaN()}, 0, 0)}},
		"negative count":      {Kind: "histogram", Series: []SeriesValue{hist([]float64{1}, 3, -1)}},
		"scalar in histogram": {Kind: "histogram", Series: []SeriesValue{scalar()}},
		"histogram in gauge":  {Kind: "gauge", Series: []SeriesValue{hist([]float64{1}, 0, 0)}},
		"duplicate series":    {Kind: "counter", Series: []SeriesValue{scalar(Label{"a", "1"}), scalar(Label{"a", "1"})}},
		"repeated label":      {Kind: "counter", Series: []SeriesValue{scalar(Label{"a", "1"}, Label{"a", "2"})}},
		"bad label name":      {Kind: "counter", Series: []SeriesValue{scalar(Label{"a b", "1"})}},
		"null family":         nil,
	}
	for name, f := range cases {
		snap := &Snapshot{Families: map[string]*Family{"xtalkd_thing": f}}
		if err := snap.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, f)
		}
	}
	bad := &Snapshot{Families: map[string]*Family{"bad name\n": {Kind: "counter", Series: []SeriesValue{scalar()}}}}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted an invalid family name")
	}
	good := &Snapshot{Families: map[string]*Family{
		"xtalkd_thing_total": {Kind: "counter", Series: []SeriesValue{scalar(Label{"a", "1"}), scalar()}},
		"xtalkd_seconds":     {Kind: "histogram", Series: []SeriesValue{hist([]float64{0.5, 1}, 1, 0, 2)}},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected a well-formed snapshot: %v", err)
	}
}

func TestFleetFamilyName(t *testing.T) {
	for in, want := range map[string]string{
		"xtalkd_fleet_workers":           "xtalkd_fleet_workers",
		"xtalkd_defects_simulated_total": "xtalkd_fleet_defects_simulated_total",
		"process_cpu_seconds":            "xtalkd_fleet_process_cpu_seconds",
	} {
		if got := FleetFamilyName(in); got != want {
			t.Errorf("FleetFamilyName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFederateByteStable proves the tentpole's determinism claim: the
// federated exposition is byte-identical for every scrape arrival order,
// because Federate iterates workers in sorted order and rendering sorts
// families and series.
func TestFederateByteStable(t *testing.T) {
	urls := []string{"http://w3:1", "http://w1:1", "http://w2:1"}
	regs := make(map[string]*Registry, len(urls))
	for i, u := range urls {
		regs[u] = workerRegistry(int64(i + 1))
	}
	var first string
	for perm := 0; perm < 6; perm++ {
		// Rebuild the snapshot map in a permuted insertion order; map
		// iteration order varies anyway, so this exercises both the map and
		// the arrival sequence.
		order := append([]string(nil), urls...)
		rng := rand.New(rand.NewSource(int64(perm)))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		snaps := make(map[string]*Snapshot, len(order))
		for _, u := range order {
			snaps[u] = regs[u].Snapshot()
		}
		fed, err := Federate(snaps)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		fed.WritePrometheus(&buf)
		if perm == 0 {
			first = buf.String()
			if err := LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("federated exposition lint: %v\n%s", err, buf.String())
			}
			continue
		}
		if buf.String() != first {
			t.Fatalf("permutation %d renders different bytes:\n--- first ---\n%s\n--- now ---\n%s",
				perm, first, buf.String())
		}
	}
	for _, u := range urls {
		want := fmt.Sprintf("worker=%q", u)
		if !strings.Contains(first, want) {
			t.Fatalf("federated exposition missing %s series:\n%s", want, first)
		}
	}
}

// TestFederateHistogramMerge proves histogram federation is a true merge:
// per-bucket counts and sums across workers equal a single registry that
// observed every worker's samples, regardless of scrape order (merge
// commutativity and associativity).
func TestFederateHistogramMerge(t *testing.T) {
	// The union registry observes everything the two workers observed.
	union := NewRegistry()
	uh := union.Histogram("xtalkd_job_seconds", "Job wall time.", nil)
	mk := func(seed int64) *Registry {
		reg := NewRegistry()
		h := reg.Histogram("xtalkd_job_seconds", "Job wall time.", nil)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			v := float64(rng.Intn(4096)) / 512
			h.Observe(v)
			uh.Observe(v)
		}
		return reg
	}
	a, b := mk(11), mk(22)

	fedAB, err := Federate(map[string]*Snapshot{"a": a.Snapshot(), "b": b.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	// Collapse the worker label back out by re-merging the two labeled
	// series: Add a copy of the family with both series into one accumulator.
	sum := func(fed *Snapshot) (counts []int64, total float64) {
		fam := fed.Families["xtalkd_fleet_job_seconds"]
		if fam == nil {
			t.Fatalf("federated snapshot lacks xtalkd_fleet_job_seconds: %v", fed.Families)
		}
		for _, sv := range fam.Series {
			if sv.Hist == nil {
				t.Fatalf("series %v is not a histogram", sv.Labels)
			}
			if counts == nil {
				counts = make([]int64, len(sv.Hist.Counts))
			}
			for i, c := range sv.Hist.Counts {
				counts[i] += c
			}
			total += sv.Hist.Sum
		}
		return counts, total
	}
	gotCounts, gotSum := sum(fedAB)

	// Commutativity: scraping b before a merges to the same totals.
	fedBA, err := Federate(map[string]*Snapshot{"b": b.Snapshot(), "a": a.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	baCounts, baSum := sum(fedBA)
	for i := range gotCounts {
		if gotCounts[i] != baCounts[i] {
			t.Fatalf("bucket %d: a,b=%d but b,a=%d", i, gotCounts[i], baCounts[i])
		}
	}
	if gotSum != baSum {
		t.Fatalf("sum: a,b=%v but b,a=%v", gotSum, baSum)
	}

	// Equality with the single registry that saw every observation.
	usnap := union.Snapshot()
	useries := usnap.Families["xtalkd_job_seconds"].Series
	if len(useries) != 1 || useries[0].Hist == nil {
		t.Fatal("union registry has no histogram series")
	}
	usv := useries[0]
	var unionTotal int64
	for i, c := range usv.Hist.Counts {
		if gotCounts[i] != c {
			t.Fatalf("bucket %d: federated %d, union registry %d", i, gotCounts[i], c)
		}
		unionTotal += c
	}
	if gotSum != usv.Hist.Sum {
		t.Fatalf("sum: federated %v, union %v", gotSum, usv.Hist.Sum)
	}
	if unionTotal != 100 {
		t.Fatalf("union observed %d samples, want 100", unionTotal)
	}
}

// TestFederateScalarSum proves counters and gauges with identical fleet
// names and labels sum across snapshots (the coordinator-side merge of its
// own families with relabeled worker families never collides, but two
// pre-relabeled snapshots of the same worker URL would).
func TestFederateScalarSum(t *testing.T) {
	mk := func(v int64) *Snapshot {
		reg := NewRegistry()
		reg.Counter("xtalkd_defects_simulated_total", "Defect runs simulated.").Add(v)
		return reg.Snapshot()
	}
	a, _ := mk(7).Relabel("w")
	b, _ := mk(5).Relabel("w")
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	v, ok := a.Value("xtalkd_fleet_defects_simulated_total", `{worker="w"}`)
	if !ok || v != 12 {
		t.Fatalf("merged counter = %v (ok=%v), want 12", v, ok)
	}
}

// TestFederateKindConflict proves merging rejects families whose kinds
// disagree rather than silently corrupting the exposition.
func TestFederateKindConflict(t *testing.T) {
	cr := NewRegistry()
	cr.Counter("xtalkd_thing_total", "Thing.")
	gr := NewRegistry()
	gr.Gauge("xtalkd_thing_total", "Thing.")
	a := cr.Snapshot()
	if err := a.Add(gr.Snapshot()); err == nil {
		t.Fatal("kind conflict merged without error")
	}
}
