package obs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// expositionFixture is a registry with one series of every kind: counter,
// gauge, func gauge, and a labeled duration histogram.
func expositionFixture() *Registry {
	r := NewRegistry()
	c := r.Counter("test_jobs_total", "jobs processed")
	c.Add(3)
	g := r.Gauge("test_queue_depth", "queued items")
	g.Set(7)
	r.GaugeFunc("test_workers", "pool size", func() float64 { return 4 })
	h := r.Histogram("test_latency_seconds", "op latency", nil, Label{"tier", "replay"})
	h.Observe(2e-6)
	h.Observe(0.5)
	return r
}

// histogramFixture is a registry holding one histogram with custom bounds
// and an observation in every bucket, +Inf included.
func histogramFixture() *Registry {
	r := NewRegistry()
	h := r.Histogram("hist_seconds", "x", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	return r
}

func TestRegistryExposition(t *testing.T) {
	r := expositionFixture()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP test_jobs_total jobs processed",
		"# TYPE test_jobs_total counter",
		"test_jobs_total 3",
		"# TYPE test_queue_depth gauge",
		"test_queue_depth 7",
		"test_workers 4",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{tier="replay",le="+Inf"} 2`,
		`test_latency_seconds_count{tier="replay"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("own exposition fails lint: %v\n%s", err, text)
	}
}

func TestRegistryIdempotentAndKindConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "x")
	b := r.Counter("dup_total", "x")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("dup_total", "x")
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := histogramFixture()
	h := r.Histogram("hist_seconds", "x", nil)
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got := h.Sum(); got < 5.5 || got > 5.6 {
		t.Fatalf("sum = %g, want ~5.555", got)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	for _, want := range []string{
		`hist_seconds_bucket{le="0.01"} 1`,
		`hist_seconds_bucket{le="0.1"} 2`,
		`hist_seconds_bucket{le="1"} 3`,
		`hist_seconds_bucket{le="+Inf"} 4`,
		"hist_seconds_count 4",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in:\n%s", want, buf.String())
		}
	}
}

func TestHistogramObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("since_seconds", "x", nil)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Fatalf("count=%d sum=%g after ObserveSince", h.Count(), h.Sum())
	}
}

func TestDurationBucketsShape(t *testing.T) {
	b := DurationBuckets()
	if len(b) != 13 || b[0] != 1e-6 {
		t.Fatalf("unexpected duration buckets %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not ascending at %d: %v", i, b)
		}
	}
	if b[len(b)-1] < 10 {
		t.Fatalf("largest bucket %g does not cover multi-second campaigns", b[len(b)-1])
	}
}

// TestRegistryExpositionPinned pins the exposition bytes of the registry
// fixtures (and of their federation) to the hashes the text renderer
// produced before registries and federated snapshots shared one renderer:
// %d for Counter and Gauge values, formatFloat for func values, sums and
// bounds, cumulative buckets with le appended to the sorted labels.
func TestRegistryExpositionPinned(t *testing.T) {
	hash := func(reg *Registry) string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	for name, c := range map[string]struct {
		reg  *Registry
		want string
	}{
		"exposition": {expositionFixture(), "8dffc126d2636811bc8c93d122550bc875dd62e12f819b7f8905f7455faa576d"},
		"histogram":  {histogramFixture(), "1e18e4da3aeca40ad17019ebaf8b2085cffadaff5526bc764a074ec9af1e4446"},
		"worker1":    {workerRegistry(1), "de06ca6eaf4557e5cbddae78183f74345e586524dc5808440c9e46eeff3812b1"},
		"worker2":    {workerRegistry(2), "28a7c2f1debf0c6c0e7061419325f375aaa49be7b2067e989e5e00dbfc202517"},
		"worker3":    {workerRegistry(3), "b0320d34c2c38a160dc3c629bccd61212dae656d9fef2ecc9dfdc80ad408d04a"},
	} {
		if got := hash(c.reg); got != c.want {
			t.Errorf("%s exposition hash %s, want %s", name, got, c.want)
		}
	}
	snaps := make(map[string]*Snapshot, 3)
	for i, u := range []string{"http://w3:1", "http://w1:1", "http://w2:1"} {
		snaps[u] = workerRegistry(int64(i + 1)).Snapshot()
	}
	fed, err := Federate(snaps)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fed.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "5d29e39fbbdbe8c92fc2ea4eaf7d8d6d688f3486f1f5d292c09218877e3f2510"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("federated exposition hash %s, want %s", got, want)
	}
}

// TestRegistryConcurrentScrape hammers updates and scrapes together; run
// under -race this is the registry's thread-safety proof.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "x")
	h := r.Histogram("conc_seconds", "x", nil, Label{"tier", "a"})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				h.Observe(1e-4)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Error(err)
		}
		// Registration of a new labelled series may race scrapes too.
		r.Histogram("conc_seconds", "x", nil, Label{"tier", "a"})
	}
	wg.Wait()
	if c.Value() != 2000 || h.Count() != 2000 {
		t.Fatalf("counter=%d hist=%d, want 2000 each", c.Value(), h.Count())
	}
}

func TestLintExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no type":          "foo 1\n",
		"duplicate series": "# HELP foo x\n# TYPE foo counter\nfoo 1\nfoo 2\n",
		"type before help": "# TYPE foo counter\nfoo 1\n",
		"bad sample":       "# HELP foo x\n# TYPE foo counter\nfoo one\n",
		"empty":            "",
		"unknown kind":     "# HELP foo x\n# TYPE foo matrix\nfoo 1\n",
	}
	for name, text := range cases {
		if err := LintExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: lint accepted %q", name, text)
		}
	}
}
