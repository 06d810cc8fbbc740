// Command xtalkbench is the repository's end-to-end benchmark. It runs one
// workload against an in-process xtalkd, from the JSON spec to the report
// bytes, checks every report, and prints the run's metrics as the last line
// of standard output:
//
//	xtalkbench --workload e5 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 a separate run replays each request layer by layer
// from this package's own code and reports the per-layer breakdown; the
// spans are written as NDJSON when the run ends. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// setupReps is how many fresh services each run sets up; setup_s is the
// median of their cold requests.
const setupReps = 5

// runLimit bounds one run, so a hung request fails the run instead of
// outliving its time budget.
const runLimit = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	out      string
}

func main() {
	var o options
	var record string
	flag.StringVar(&o.workload, "workload", "", "workload to run: e5, widebus64, e5-infield or e5-fleet")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the only input that picks the generated specs")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	flag.StringVar(&o.root, "root", ".", "repository root, hashed into the run record")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the run records and span dumps")
	flag.StringVar(&record, "record-golden", "", "render the check-seed reports with the execute engine and write their hashes to this file")
	flag.Parse()
	if record != "" {
		if err := recordGolden(record); err != nil {
			fmt.Fprintln(os.Stderr, "xtalkbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtalkbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtalkbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts requests and the checks on their reports.
type tally struct {
	g         *golden
	w         workload
	attempted int
	failures  []string
	judged    int
	library   int
	detected  int
}

// add counts one request; it reports whether the request and every one of
// its reports passed.
func (t *tally) add(reps []jobReport, err error) bool {
	t.attempted++
	for _, rep := range reps {
		if rep.body == nil {
			continue
		}
		v, cerr := t.g.checkReport(t.w, rep.spec, rep.body)
		err = errors.Join(err, cerr)
		t.judged += v.judged
		t.library += v.library
		t.detected += v.detected
	}
	if err != nil {
		t.failures = append(t.failures, err.Error())
		return false
	}
	return true
}

func (t *tally) result(metrics map[string]metric) *result {
	return &result{Correct: len(t.failures) == 0, Attempted: t.attempted, Failed: len(t.failures), Metrics: metrics}
}

func run(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return nil, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if _, ok := g.Reports[w.family]; !ok {
		return nil, fmt.Errorf("golden.json has no check-seed hashes for %s", w.family)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	rec := newRecord(o, g)
	t := &tally{g: g, w: w}
	var res *result
	if o.trace == 0 {
		res, err = endToEnd(ctx, o, w, g, t, rec)
	} else {
		res, err = traced(ctx, o, w, g, t, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed, rec.Failures = res.Attempted, res.Failed, t.failures
	rec.Metrics = res.Metrics
	if err := rec.append(filepath.Join(o.out, "xtalkbench-runs.ndjson")); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd measures the service as a user sees it: setupReps cold requests
// on fresh services, then a closed loop of fresh requests for the window.
func endToEnd(ctx context.Context, o options, w workload, g *golden, t *tally, rec *record) (*result, error) {
	var svc *service
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			svc.close()
			runtime.GC()
		}
		var err error
		if svc, err = newService(w); err != nil {
			return nil, err
		}
		t0 := time.Now()
		reps, err := svc.request(ctx, w, w.specs(g.CheckSeed), false)
		setups = append(setups, time.Since(t0).Seconds())
		t.add(reps, err)
	}
	defer svc.close()

	gen := newSeedGen(w, o.seed)
	runtime.GC()
	var lat []float64
	var heapMB, probe float64
	judged := t.judged
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	var window float64
	// Requests after the deadline run only when the window ended before
	// the heap probe; they are checked but not timed.
	for n := 1; ctx.Err() == nil; n++ {
		timed := time.Now().Before(deadline)
		if !timed {
			if window == 0 {
				window = time.Since(start).Seconds() - probe
				judged = t.judged - judged
			}
			if n > w.heapAfter {
				break
			}
		}
		seed := gen.next()
		t0 := time.Now()
		reps, err := svc.request(ctx, w, w.specs(seed), false)
		d := time.Since(t0).Seconds()
		if t.add(reps, err) && timed {
			lat = append(lat, d)
		}
		if timed {
			rec.Requests = append(rec.Requests, requestSample{Seed: seed, Seconds: d})
		}
		if n == w.heapAfter {
			t0 := time.Now()
			heapMB = liveHeapMB()
			probe = time.Since(t0).Seconds()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run limit: %w", err)
	}

	cycles, err := testCycles(w.specs(g.CheckSeed)[0])
	if err != nil {
		return nil, err
	}
	rec.Setups = setups
	rec.Summaries = map[string]summary{"request_s": summarize(lat), "setup_s": summarize(setups)}
	rec.WindowSeconds = window
	rec.HeapAfter = w.heapAfter
	cov := 0.0
	if t.library > 0 {
		cov = 100 * float64(t.detected) / float64(t.library)
	}
	return t.result(map[string]metric{
		"request_p50_s": {median(lat), "s"},
		"defects_per_s": {float64(judged) / window, "1/s"},
		"setup_s":       {median(setups), "s"},
		"live_heap_mb":  {heapMB, "MB"},
		"ok_ratio":      {float64(t.attempted-len(t.failures)) / float64(t.attempted), "ratio"},
		"test_cycles":   {float64(cycles), "cycles"},
		"coverage_pct":  {cov, "%"},
	}), nil
}

// liveHeapMB is the heap in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// testCycles is the modelled CPU cycle count of the spec's applied program:
// the golden run of every session.
func testCycles(spec campaign.Spec) (uint64, error) {
	spec = spec.Normalized()
	tgt, models, err := setup(spec)
	if err != nil {
		return 0, err
	}
	plan, err := campaign.SpecPlan(spec)
	if err != nil {
		return 0, err
	}
	run, err := sim.NewTargetRunner(tgt, plan, models)
	if err != nil {
		return 0, err
	}
	return run.GoldenCycles(), nil
}

// recordGolden writes the golden file with the check-seed report hashes
// the execute reference engine renders.
func recordGolden(path string) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if g.Reports, err = referenceHashes(g.CheckSeed); err != nil {
		return err
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// referenceHashes renders every workload family's check-seed reports
// through a fresh service running the execute reference engine and returns
// their SHA-256 by family and bus.
func referenceHashes(checkSeed int64) (map[string]map[string]string, error) {
	hashes := make(map[string]map[string]string)
	ctx := context.Background()
	for _, w := range workloads {
		if _, done := hashes[w.family]; done || w.fleet {
			continue
		}
		specs := w.specs(checkSeed)
		for i := range specs {
			specs[i].Engine = sim.Execute.String()
		}
		svc, err := newService(w)
		if err != nil {
			return nil, err
		}
		reps, err := svc.request(ctx, w, specs, false)
		svc.close()
		if err != nil {
			return nil, err
		}
		hashes[w.family] = make(map[string]string)
		for _, rep := range reps {
			hashes[w.family][rep.spec.Bus] = sha(rep.body)
		}
	}
	return hashes, nil
}
