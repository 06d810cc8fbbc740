package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/sim"
)

// layerSpans are the span names of the traced pipeline, each reported as
// its mean self time per request under "<name>_s". The request root's self
// time is unattributed_s; together they sum to traced_request_s.
var layerSpans = []string{
	"core.plan", "campaign.plan_hash", "defects.library", "sim.campaign",
	"sim.aggregate", "report.encode", "fleet.shard_key", "fleet.transfer",
	"campaign.run_shard", "sim.merge", "infield.manifest", "infield.workload",
	"infield.merge", "infield.drift",
}

// traced replays each request layer by layer with spans (see replay), and
// sends the same request to a live service to read the jobs' own
// queue/run stamps. The replay's report bytes must equal the service's.
func traced(ctx context.Context, o options, w workload, g *golden, t *tally, rec *record) (*result, error) {
	tr := newTracer()
	rp := newReplay(w, tr)
	svc, err := newService(w)
	if err != nil {
		return nil, err
	}
	defer svc.close()

	// Cold request on empty caches: the golden runs happen here only.
	specs := w.specs(g.CheckSeed)
	reps, _, coldReq, err := rp.request(specs)
	t.add(reps, err)
	coldSelf, coldWall := tr.selfTimes(coldReq)
	sreps, err := svc.request(ctx, w, specs, false)
	t.add(sreps, err)

	gen := newSeedGen(w, o.seed)
	var walls []float64
	self := make(map[string][]float64)
	var all []*counts
	var slices []float64
	var queue, runS, client []float64
	var sumWall, sumSelf int64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		specs := w.specs(gen.next())
		reps, c, req, err := rp.request(specs)
		t.add(reps, err)
		st, wall := tr.selfTimes(req)
		sumWall += wall
		walls = append(walls, float64(wall)/1e9)
		for _, name := range append([]string{"request", "sim.golden"}, layerSpans...) {
			self[name] = append(self[name], float64(st[name])/1e9)
		}
		for _, ns := range st {
			sumSelf += ns
		}
		all = append(all, c)
		for _, ns := range c.sliceNs {
			slices = append(slices, float64(ns)/1e9)
		}

		sreps, err := svc.request(ctx, w, specs, true)
		if err == nil {
			err = sameReports(reps, sreps)
		}
		t.add(sreps, err)
		for _, rep := range sreps {
			if st := rep.status; st != nil {
				queue = append(queue, st.Started.Sub(st.Submitted).Seconds())
				runS = append(runS, st.Finished.Sub(st.Started).Seconds())
				client = append(client, (rep.wall - st.Finished.Sub(st.Submitted)).Seconds())
			}
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no traced request completed in %ds", o.seconds)
	}
	if sumSelf != sumWall {
		return nil, fmt.Errorf("self times sum to %dns, traced walls to %dns", sumSelf, sumWall)
	}

	n := float64(len(walls))
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / n
	}
	var tot counts
	for _, c := range all {
		tot.defects += c.defects
		tot.screenNs += c.screenNs
		tot.resumeBusyNs += c.resumeBusyNs
		tot.resumed += c.resumed
		tot.reportBytes += c.reportBytes
		tot.transferBytes += c.transferBytes
		tot.addEngine(sim.EngineStats{}, c.engine)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{
		"traced_request_s":         {float64(sumWall) / 1e9 / n, "s"},
		"unattributed_s":           {mean(self["request"]), "s"},
		"sim.golden_s":             {float64(coldSelf["sim.golden"]) / 1e9, "s"},
		"cold.traced_request_s":    {float64(coldWall) / 1e9, "s"},
		"sim.screen_s":             {float64(tot.screenNs) / 1e9 / n, "s"},
		"sim.screen_cleared_ratio": {ratio(float64(tot.engine.BatchScreened), float64(tot.defects)), "ratio"},
		"sim.resume_busy_s":        {float64(tot.resumeBusyNs) / 1e9 / n, "s"},
		"sim.resume_per_defect_us": {ratio(float64(tot.resumeBusyNs)/1e3, float64(tot.resumed)), "us"},
		"sim.fallbacks":            {float64(tot.engine.Fallbacks) / n, "count"},
		"sim.replay_hits":          {float64(tot.engine.ReplayHits) / n, "count"},
		"sim.batch_sweeps":         {float64(tot.engine.BatchSweeps) / n, "count"},
		"sim.memo_hit_ratio":       {ratio(float64(tot.engine.MemoHits), float64(tot.engine.MemoHits+tot.engine.MemoMisses)), "ratio"},
		"report.bytes":             {float64(tot.reportBytes) / n, "bytes"},
		"fleet.transfer_bytes":     {float64(tot.transferBytes) / n, "bytes"},
		"infield.slice_s":          {median(slices), "s"},
		"campaign.queue_s":         {median(queue), "s"},
		"campaign.run_s":           {median(runS), "s"},
		"campaign.client_s":        {median(client), "s"},
		"fail_ratio":               {float64(len(t.failures)) / float64(t.attempted), "ratio"},
	}
	rec.SelfTimes = make(map[string]float64)
	rec.Summaries = map[string]summary{
		"traced_request_s":  summarize(walls),
		"infield.slice_s":   summarize(slices),
		"campaign.queue_s":  summarize(queue),
		"campaign.run_s":    summarize(runS),
		"campaign.client_s": summarize(client),
	}
	for name, xs := range self {
		key := name + "_s"
		switch name {
		case "request":
			key = "unattributed_s"
		case "sim.golden":
			// Reported from the cold request: warm requests hit the cache.
		default:
			m[key] = metric{mean(xs), "s"}
		}
		rec.SelfTimes[key] = mean(xs)
		rec.Summaries[key] = summarize(xs)
	}
	rec.TracedWall = float64(sumWall) / 1e9 / n
	rec.SpansFile = filepath.Join(o.out, fmt.Sprintf("xtalkbench-spans-%s-%d.ndjson", w.name, o.seed))
	if err := tr.write(rec.SpansFile); err != nil {
		return nil, err
	}
	return t.result(m), nil
}

// sameReports checks that the replay rendered exactly the service's bytes.
func sameReports(replayed, served []jobReport) error {
	if len(replayed) != len(served) {
		return fmt.Errorf("replay rendered %d reports, service %d", len(replayed), len(served))
	}
	byBus := make(map[string][]byte)
	for _, r := range replayed {
		byBus[r.spec.Bus] = r.body
	}
	var diff []string
	for _, s := range served {
		if !bytes.Equal(byBus[s.spec.Bus], s.body) {
			diff = append(diff, s.spec.Bus)
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		return fmt.Errorf("replayed report differs from the service's on %v", diff)
	}
	return nil
}
