package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/fleet"
	"repro/internal/infield"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/target"
	functional "repro/internal/workload"
)

// replay re-runs a workload's request layer by layer, calling each layer's
// public function in the order the service does and wrapping each call in a
// span. It keeps the service's caches (golden runners by plan hash, defect
// libraries by library identity, in-field baselines by manifest key) so warm
// requests skip exactly what the service skips. Requests run their jobs one
// after another, so the spans of a request never overlap.
type replay struct {
	w         workload
	tr        *tracer
	workers   int
	runners   map[string]*sim.Runner
	libs      map[string]*defects.Library
	baselines *infield.BaselineStore
	mgr       *campaign.Manager // fleet: runs the shards
}

// fleetShards is the coordinator's default shard count for the benchmark
// fleet: four shards per live worker.
const fleetShards = 4 * fleetWorkers

func newReplay(w workload, tr *tracer) *replay {
	r := &replay{
		w:         w,
		tr:        tr,
		workers:   runtime.GOMAXPROCS(0),
		runners:   make(map[string]*sim.Runner),
		libs:      make(map[string]*defects.Library),
		baselines: infield.NewBaselineStore(""),
	}
	if w.fleet {
		// One manager holding every core runs the shards one at a time, so
		// the shard spans stay sequential.
		r.mgr = campaign.New(campaign.Config{Workers: r.workers})
	}
	return r
}

// counts are one traced request's layer counters.
type counts struct {
	defects       int   // defect runs across all campaigns
	screenNs      int64 // campaign call start to first defect run start
	resumeBusyNs  int64 // summed run time of defects that left the screen
	resumed       int
	engine        sim.EngineStats // runner counter deltas
	reportBytes   int64
	transferBytes int64
	sliceNs       []int64 // per in-field slice campaign
}

func (c *counts) addEngine(before, after sim.EngineStats) {
	c.engine.ReplayHits += after.ReplayHits - before.ReplayHits
	c.engine.Fallbacks += after.Fallbacks - before.Fallbacks
	c.engine.BatchSweeps += after.BatchSweeps - before.BatchSweeps
	c.engine.BatchScreened += after.BatchScreened - before.BatchScreened
	c.engine.MemoHits += after.MemoHits - before.MemoHits
	c.engine.MemoMisses += after.MemoMisses - before.MemoMisses
}

// request replays one workload request under a new root span.
func (r *replay) request(specs []campaign.Spec) ([]jobReport, *counts, int, error) {
	c := &counts{}
	root := r.tr.begin(nil, "request")
	out := make([]jobReport, 0, len(specs))
	var err error
	for _, spec := range specs {
		var body []byte
		switch {
		case r.w.fleet:
			body, err = r.fleetJob(root, spec, c)
		case spec.JobType() == campaign.TypeInfield:
			body, err = r.infieldJob(root, spec, c)
		default:
			body, err = r.campaignJob(root, spec, c)
		}
		if err != nil {
			break
		}
		c.reportBytes += int64(len(body))
		out = append(out, jobReport{spec: spec, body: body})
	}
	r.tr.end(root)
	return out, c, root.Req, err
}

// setup resolves the spec's target and bus models, as every job does first.
func setup(spec campaign.Spec) (target.Target, []sim.BusSetup, error) {
	tgt, err := target.Parse(spec.Target)
	if err != nil {
		return nil, nil, err
	}
	models, err := tgt.BusModels(spec.CthFactor)
	return tgt, models, err
}

func (r *replay) plan(root *span, spec campaign.Spec) (*core.Plan, error) {
	var plan *core.Plan
	err := r.tr.do(root, "core.plan", func() (err error) {
		plan, err = campaign.SpecPlan(spec)
		return err
	})
	return plan, err
}

func (r *replay) hash(root *span, plan *core.Plan) (string, error) {
	var h string
	err := r.tr.do(root, "campaign.plan_hash", func() (err error) {
		h, err = campaign.PlanHash(plan)
		return err
	})
	return h, err
}

// runner returns the cached golden runner for the plan, running the golden
// sessions on a miss.
func (r *replay) runner(root *span, tgt target.Target, plan *core.Plan, models []sim.BusSetup, cth float64) (*sim.Runner, error) {
	h, err := r.hash(root, plan)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s|%s|cth=%g", tgt.Name(), h, cth)
	if run, ok := r.runners[key]; ok {
		return run, nil
	}
	var run *sim.Runner
	err = r.tr.do(root, "sim.golden", func() (err error) {
		run, err = sim.NewTargetRunner(tgt, plan, models)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.runners[key] = run
	return run, nil
}

// library returns the cached defect library for the spec, generating it on
// a miss.
func (r *replay) library(root *span, spec campaign.Spec, setup sim.BusSetup) (*defects.Library, error) {
	key := fmt.Sprintf("%s|%s|%d|%g|%d|%g", spec.TargetName(), spec.Bus, spec.Size, spec.Sigma, spec.Seed, setup.Thresholds.Cth)
	if lib, ok := r.libs[key]; ok {
		return lib, nil
	}
	var lib *defects.Library
	err := r.tr.do(root, "defects.library", func() (err error) {
		lib, err = defects.Generate(setup.Nominal, setup.Thresholds,
			defects.Config{Size: spec.Size, Sigma: spec.Sigma, Seed: spec.Seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.libs[key] = lib
	return lib, nil
}

// campaign runs the library through the runner inside a sim.campaign span.
// The screen is the time from the call to the first defect run's start (the
// batched sweep runs before any defect is dispatched); resume busy time sums
// the run times of defects the screen did not clear.
func (r *replay) campaign(root *span, run *sim.Runner, spec campaign.Spec, lib *defects.Library, c *counts) (*sim.CampaignResult, *span, error) {
	eng, err := sim.ParseEngine(spec.Engine)
	if err != nil {
		return nil, nil, err
	}
	var mu sync.Mutex
	first := int64(math.MaxInt64)
	var busy int64
	resumed := 0
	opts := sim.CampaignOpts{
		Workers: r.workers,
		Engine:  eng,
		Observe: func(out sim.Outcome, d time.Duration) {
			start := r.tr.now() - int64(d)
			mu.Lock()
			defer mu.Unlock()
			first = min(first, start)
			if !out.Replayed {
				busy += int64(d)
				resumed++
			}
		},
	}
	before := run.Stats()
	s := r.tr.begin(root, "sim.campaign")
	res, err := run.CampaignCtx(context.Background(), spec.BusID(), lib, opts)
	r.tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	c.addEngine(before, run.Stats())
	screen := min(first, s.End) - s.Start
	s.Attrs = map[string]float64{
		"defects": float64(len(lib.Defects)), "screen_ns": float64(screen),
		"resume_busy_ns": float64(busy), "resumed": float64(resumed),
	}
	c.defects += len(lib.Defects)
	c.screenNs += screen
	c.resumeBusyNs += busy
	c.resumed += resumed
	return res, s, nil
}

// campaignJob mirrors a standalone campaign job: plan, golden, library,
// campaign, aggregate, encode.
func (r *replay) campaignJob(root *span, spec campaign.Spec, c *counts) ([]byte, error) {
	spec = spec.Normalized()
	tgt, models, err := setup(spec)
	if err != nil {
		return nil, err
	}
	bm := models[spec.BusID()]
	plan, err := r.plan(root, spec)
	if err != nil {
		return nil, err
	}
	run, err := r.runner(root, tgt, plan, models, spec.CthFactor)
	if err != nil {
		return nil, err
	}
	lib, err := r.library(root, spec, bm)
	if err != nil {
		return nil, err
	}
	res, _, err := r.campaign(root, run, spec, lib, c)
	if err != nil {
		return nil, err
	}
	var agg *sim.CampaignResult
	r.tr.do(root, "sim.aggregate", func() error {
		agg = sim.Aggregate(spec.BusID(), res.Outcomes)
		agg.BusName = res.BusName
		return nil
	})
	var buf bytes.Buffer
	err = r.tr.do(root, "report.encode", func() error {
		return report.WriteCampaignJSON(&buf, agg, bm.Nominal.Width)
	})
	return buf.Bytes(), err
}

// infieldJob mirrors an in-field job: the full plan's golden costs slice it
// into a manifest, then each slice's functional phase, sub-plan campaign and
// ledger merge run under the package's own scheduler, and the completed
// curve is compared against the manifest key's baseline before encoding.
func (r *replay) infieldJob(root *span, spec campaign.Spec, c *counts) ([]byte, error) {
	spec = spec.Normalized()
	tgt, models, err := setup(spec)
	if err != nil {
		return nil, err
	}
	bm := models[spec.BusID()]
	plan, err := r.plan(root, spec)
	if err != nil {
		return nil, err
	}
	full, err := r.runner(root, tgt, plan, models, spec.CthFactor)
	if err != nil {
		return nil, err
	}
	lib, err := r.library(root, spec, bm)
	if err != nil {
		return nil, err
	}
	h, err := r.hash(root, plan)
	if err != nil {
		return nil, err
	}
	var manifest *infield.Manifest
	err = r.tr.do(root, "infield.manifest", func() (err error) {
		manifest, err = infield.BuildManifest(plan,
			func(s int) uint64 { return full.Golden(s).Cycles },
			infield.Config{PlanHash: h, Seed: spec.Seed, Sigma: spec.Sigma, CthFactor: spec.CthFactor,
				SliceCycles: spec.SliceCycles, Slices: spec.Slices})
		return err
	})
	if err != nil {
		return nil, err
	}
	ledger := infield.NewLedger(len(lib.Defects), len(manifest.Slices), spec.BusID())
	phases, err := functional.NewPhaseIterator(functional.DefaultPhases())
	if err != nil {
		return nil, err
	}
	var mergeStart int64
	sched := &infield.Scheduler{
		Manifest: manifest,
		Ledger:   ledger,
		Phases:   phases,
		Interval: time.Duration(spec.IntervalMS) * time.Millisecond,
		RunPhase: func(ctx context.Context, ph functional.Phase) error {
			// The service's functional phase on Parwan: a seeded random
			// program, measured for 1000 steps on the bus under test.
			return r.tr.do(root, "infield.workload", func() error {
				rng := rand.New(rand.NewSource(spec.Seed ^ int64(ph.Seq)<<20))
				im, entry, err := functional.RandomProgram(rng, functional.Config{Instructions: 24})
				if err != nil {
					return err
				}
				_, err = functional.Measure(im, entry, 1000, spec.Bus, bm.Nominal, bm.Thresholds)
				return err
			})
		},
		RunSlice: func(ctx context.Context, sl infield.Slice) ([]sim.Outcome, error) {
			var sub *core.Plan
			err := r.tr.do(root, "infield.manifest", func() (err error) {
				sub, err = infield.SubPlan(plan, sl)
				return err
			})
			if err != nil {
				return nil, err
			}
			run, err := r.runner(root, tgt, sub, models, spec.CthFactor)
			if err != nil {
				return nil, err
			}
			res, s, err := r.campaign(root, run, spec, lib, c)
			if err != nil {
				return nil, err
			}
			c.sliceNs = append(c.sliceNs, s.dur())
			mergeStart = r.tr.now()
			return res.Outcomes, nil
		},
		// The scheduler merges between RunSlice returning and OnMerge.
		OnMerge: func(infield.Slice, infield.CoveragePoint) {
			r.tr.add(root, "infield.merge", mergeStart, r.tr.now())
		},
	}
	if err := sched.Run(context.Background()); err != nil {
		return nil, err
	}
	var doc *report.InfieldJSON
	r.tr.do(root, "report.encode", func() error {
		doc = report.NewInfieldJSON(spec.TargetName(), spec.Bus, manifest, ledger)
		return nil
	})
	r.tr.do(root, "infield.drift", func() error {
		base, ok := r.baselines.Get(manifest.Key)
		if !ok {
			return r.baselines.Put(&infield.Baseline{Key: manifest.Key, SavedAt: time.Now(),
				Points: append([]infield.CoveragePoint(nil), doc.Points...)})
		}
		doc.Drift = &report.InfieldDriftJSON{Kind: "drift",
			DriftReport: infield.Compare(base, doc.Points, infield.Tolerance{})}
		return nil
	})
	var buf bytes.Buffer
	err = r.tr.do(root, "report.encode", func() error { return report.WriteInfieldNDJSON(&buf, doc) })
	return buf.Bytes(), err
}

// shardKey computes fleet.SpecShardKey from its public parts, so the plan
// generation and plan hash it pays for show as core.plan and
// campaign.plan_hash spans under the fleet.shard_key span.
func (r *replay) shardKey(root *span, spec campaign.Spec, count int) (string, error) {
	s := r.tr.begin(root, "fleet.shard_key")
	defer r.tr.end(s)
	plan, err := r.plan(s, spec)
	if err != nil {
		return "", err
	}
	h, err := r.hash(s, plan)
	if err != nil {
		return "", err
	}
	cth, err := campaign.SpecCth(spec)
	if err != nil {
		return "", err
	}
	n := spec.Normalized()
	return fleet.ShardKey(h, n.Seed, n.Sigma, cth, n.Size, count), nil
}

// fleetJob mirrors a fleet campaign: the coordinator keys and shards the
// library, each shard request and response crosses the wire as JSON, the
// worker re-derives the key and runs the shard, and the coordinator merges
// the outcomes back into library order.
func (r *replay) fleetJob(root *span, spec campaign.Spec, c *counts) ([]byte, error) {
	spec = spec.Normalized()
	key, err := r.shardKey(root, spec, fleetShards)
	if err != nil {
		return nil, err
	}
	plan, err := fleet.PlanShards(key, spec.Size, fleetShards)
	if err != nil {
		return nil, err
	}
	results := make([]sim.OutcomeShard, 0, len(plan.Shards))
	for _, sh := range plan.Shards {
		var req fleet.ShardRequest
		err := r.tr.do(root, "fleet.transfer", func() error {
			b, err := json.Marshal(fleet.ShardRequest{Spec: spec, Key: key, Shards: len(plan.Shards), Start: sh.Start, End: sh.End})
			if err != nil {
				return err
			}
			c.transferBytes += int64(len(b))
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			return dec.Decode(&req)
		})
		if err != nil {
			return nil, err
		}
		k, err := r.shardKey(root, req.Spec, req.Shards)
		if err != nil {
			return nil, err
		}
		if k != req.Key {
			return nil, fmt.Errorf("shard key mismatch: %s != %s", k, req.Key)
		}
		var outs []sim.Outcome
		var stats sim.EngineStats
		before := r.mgr.Metrics().Engine
		err = r.tr.do(root, "campaign.run_shard", func() (err error) {
			outs, stats, err = r.mgr.RunShard(context.Background(), req.Spec, req.Start, req.End)
			return err
		})
		if err != nil {
			return nil, err
		}
		c.addEngine(before, r.mgr.Metrics().Engine)
		c.defects += len(outs)
		var resp fleet.ShardResponse
		err = r.tr.do(root, "fleet.transfer", func() error {
			sent := fleet.ShardResponse{Start: req.Start, Outcomes: outs, Stats: stats}
			for _, o := range outs {
				if o.Replayed {
					sent.ReplayHits++
				} else {
					sent.Executed++
				}
			}
			b, err := json.Marshal(sent)
			if err != nil {
				return err
			}
			c.transferBytes += int64(len(b))
			return json.Unmarshal(b, &resp)
		})
		if err != nil {
			return nil, err
		}
		results = append(results, sim.OutcomeShard{Start: resp.Start, Outcomes: resp.Outcomes})
	}
	var res *sim.CampaignResult
	err = r.tr.do(root, "sim.merge", func() (err error) {
		res, err = sim.MergeOutcomes(spec.BusID(), plan.Total, results)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.BusName = spec.Bus
	tgt, _, err := setup(spec)
	if err != nil {
		return nil, err
	}
	width := tgt.Topology().Channels[spec.BusID()].Width
	var buf bytes.Buffer
	err = r.tr.do(root, "report.encode", func() error { return report.WriteCampaignJSON(&buf, res, width) })
	return buf.Bytes(), err
}
