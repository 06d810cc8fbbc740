package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/target"
)

// CoordinatorConfig tunes a Coordinator. The zero value selects the
// defaults noted per field.
type CoordinatorConfig struct {
	// MaxInFlight bounds concurrently dispatched shards; zero selects
	// 2 × the number of live workers at dispatch time (at least 2).
	MaxInFlight int
	// ShardsPerWorker sets the default shard count of a campaign as a
	// multiple of the live worker count, so a mid-campaign worker loss only
	// forfeits a fraction of that worker's assignment; zero selects 4.
	ShardsPerWorker int
	// ShardTimeout bounds one shard attempt; zero selects 5 minutes.
	ShardTimeout time.Duration
	// MaxAttempts bounds attempts per shard before the campaign fails;
	// zero selects 6.
	MaxAttempts int
	// Backoff is the base retry delay, doubled per attempt; zero selects
	// 100ms.
	Backoff time.Duration
	// HeartbeatTTL expires workers that stop heartbeating; zero means
	// workers never expire (static registry, e.g. xtalk sim -workers).
	HeartbeatTTL time.Duration
	// Client is the HTTP client for shard dispatch; nil selects a default
	// with no overall timeout (per-shard attempts are bounded by
	// ShardTimeout contexts).
	Client *http.Client
	// Obs is the telemetry bundle the coordinator registers its metrics in
	// and emits spans and events to; nil selects a fresh enabled bundle. Use
	// a bundle separate from any campaign.Manager in the same process only
	// if that manager serves a different /metrics endpoint; co-registered
	// names never collide (fleet metrics are xtalkd_fleet_*-prefixed, except
	// xtalkd_fleet_shards_served_total which belongs to the worker manager).
	Obs *obs.Telemetry
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.ShardsPerWorker <= 0 {
		c.ShardsPerWorker = 4
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// WorkerInfo is one registry entry snapshot.
type WorkerInfo struct {
	URL      string    `json:"url"`
	Alive    bool      `json:"alive"`
	LastSeen time.Time `json:"last_seen"`
	Shards   int64     `json:"shards"`   // shards completed by this worker
	Failures int64     `json:"failures"` // shard attempts failed on this worker
}

type workerState struct {
	url      string
	lastSeen time.Time
	dead     bool // marked on transport failure; a heartbeat revives it
	expired  bool // TTL expiry already recorded, so the event fires once
	shards   atomic.Int64
	failures atomic.Int64

	// Federation state: the last parsed registry exposition this worker
	// pushed on its heartbeat, and when it arrived (staleness source).
	snapshot   *obs.Snapshot
	snapshotAt time.Time
}

// Metrics is a snapshot of the coordinator's counters.
type Metrics struct {
	Workers          int   `json:"workers"`
	WorkersAlive     int   `json:"workers_alive"`
	Campaigns        int64 `json:"campaigns"`
	CampaignsFailed  int64 `json:"campaigns_failed"`
	ShardsDispatched int64 `json:"shards_dispatched"`
	ShardRetries     int64 `json:"shard_retries"`
	DefectsMerged    int64 `json:"defects_merged"`
}

// FleetStats attributes one distributed campaign's defects to the workers'
// engine tiers (summed over shard responses).
type FleetStats struct {
	Shards     int `json:"shards"`
	Retries    int `json:"retries"`
	ReplayHits int `json:"replay_hits"`
	Executed   int `json:"executed"`
	// TraceID identifies this campaign's trace in the coordinator's span
	// collector (GET /debug/trace/{TraceID}), including the worker spans
	// shipped back in shard responses. Empty when tracing is disabled.
	TraceID string `json:"trace_id,omitempty"`
}

// Coordinator owns the worker registry and drives distributed campaigns:
// it plans shards, dispatches them to live workers with bounded fan-out,
// retries failed or timed-out shards on surviving workers with exponential
// backoff, and merges partial results into the exact single-node campaign
// result.
type Coordinator struct {
	cfg   CoordinatorConfig
	obs   *obs.Telemetry
	plans *campaign.PlanMemo // resolves the plan hash behind each shard key

	mu      sync.Mutex
	workers map[string]*workerState
	rr      int // round-robin cursor

	campaigns, campaignsFailed, shardsDispatched, shardRetries, defectsMerged *obs.Counter
	shardsInflight                                                            *obs.Gauge
	shardRoundtrip, shardDispatch                                             *obs.Histogram
}

// NewCoordinator builds a coordinator with an empty registry.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	t := cfg.Obs
	if t == nil {
		t = obs.NewTelemetry()
	}
	c := &Coordinator{cfg: cfg, obs: t, plans: campaign.NewPlanMemo(), workers: make(map[string]*workerState)}
	reg := t.Reg
	c.campaigns = reg.Counter("xtalkd_fleet_campaigns_total", "distributed campaigns run")
	c.campaignsFailed = reg.Counter("xtalkd_fleet_campaigns_failed_total", "distributed campaigns that failed")
	c.shardsDispatched = reg.Counter("xtalkd_fleet_shards_dispatched_total", "shard assignments completed by workers")
	c.shardRetries = reg.Counter("xtalkd_fleet_shard_retries_total", "shard attempts retried after a failure")
	c.defectsMerged = reg.Counter("xtalkd_fleet_defects_merged_total", "defect outcomes merged from shards")
	c.shardsInflight = reg.Gauge("xtalkd_fleet_shards_inflight", "shards currently dispatched and awaiting results")
	c.shardRoundtrip = reg.Histogram("xtalkd_fleet_shard_roundtrip_seconds",
		"one successful shard POST round-trip (excludes retries and backoff)", nil)
	c.shardDispatch = reg.Histogram("xtalkd_fleet_shard_dispatch_seconds",
		"one shard's full dispatch including retries and backoff", nil)
	reg.GaugeFunc("xtalkd_fleet_workers", "registered workers",
		func() float64 { return float64(len(c.Workers())) })
	reg.GaugeFunc("xtalkd_fleet_workers_alive", "registered workers currently alive",
		func() float64 { return float64(c.LiveWorkers()) })
	t.SLO.Add(obs.Objective{
		Name:        "shard_roundtrip",
		Description: "successful shard round-trips complete within ~4.2 s",
		Source:      obs.HistogramLatencySource(c.shardRoundtrip, 4.2),
		Budget:      0.05,
	})
	return c
}

// Obs returns the coordinator's telemetry bundle (never nil).
func (c *Coordinator) Obs() *obs.Telemetry { return c.obs }

// HealthFacts snapshots live registry facts for /healthz: registered and
// alive workers, in-flight shards, the alert summary, and per-worker scrape
// staleness (seconds since each worker last pushed its registry).
func (c *Coordinator) HealthFacts() map[string]any {
	now := time.Now()
	c.mu.Lock()
	total, alive := len(c.workers), 0
	staleness := make(map[string]float64, len(c.workers))
	for _, w := range c.workers {
		if c.aliveLocked(w) {
			alive++
		}
		if !w.snapshotAt.IsZero() {
			staleness[w.url] = now.Sub(w.snapshotAt).Seconds()
		}
	}
	c.mu.Unlock()
	facts := map[string]any{
		"workers":         total,
		"workers_alive":   alive,
		"shards_inflight": c.shardsInflight.Value(),
	}
	if len(staleness) > 0 {
		facts["scrape_staleness_seconds"] = staleness
	}
	if sum := c.obs.SLO.Summary(); sum != nil {
		facts["alerts"] = sum
	}
	return facts
}

// Register adds a worker or refreshes its heartbeat. A worker marked dead
// by a failed dispatch is revived — the heartbeat is the signal that it is
// reachable again.
func (c *Coordinator) Register(url string) {
	c.mu.Lock()
	w, ok := c.workers[url]
	event := ""
	if !ok {
		w = &workerState{url: url}
		c.workers[url] = w
		event = "worker.join"
	} else if w.dead || w.expired {
		event = "worker.revive"
	}
	w.lastSeen = time.Now()
	w.dead = false
	w.expired = false
	c.mu.Unlock()
	if event != "" {
		c.obs.Record(event, obs.Label{Key: "worker", Value: url})
	}
}

// Workers snapshots the registry, sorted by URL.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerInfo{
			URL:      w.url,
			Alive:    c.aliveLocked(w),
			LastSeen: w.lastSeen,
			Shards:   w.shards.Load(),
			Failures: w.failures.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Metrics snapshots the coordinator counters.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	total, alive := len(c.workers), 0
	for _, w := range c.workers {
		if c.aliveLocked(w) {
			alive++
		}
	}
	c.mu.Unlock()
	return Metrics{
		Workers:          total,
		WorkersAlive:     alive,
		Campaigns:        c.campaigns.Value(),
		CampaignsFailed:  c.campaignsFailed.Value(),
		ShardsDispatched: c.shardsDispatched.Value(),
		ShardRetries:     c.shardRetries.Value(),
		DefectsMerged:    c.defectsMerged.Value(),
	}
}

func (c *Coordinator) aliveLocked(w *workerState) bool {
	if w.dead {
		return false
	}
	if c.cfg.HeartbeatTTL > 0 && time.Since(w.lastSeen) > c.cfg.HeartbeatTTL {
		if !w.expired {
			// Flag before recording so the expiry event fires once per
			// outage, not once per liveness check.
			w.expired = true
			c.obs.Record("worker.expire", obs.Label{Key: "worker", Value: w.url})
		}
		return false
	}
	return true
}

// pick returns the next live worker round-robin, excluding avoid (the worker
// that just failed the shard, so an immediate retry lands elsewhere when the
// fleet has survivors).
func (c *Coordinator) pick(avoid string) (*workerState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := make([]*workerState, 0, len(c.workers))
	for _, w := range c.workers {
		if c.aliveLocked(w) && w.url != avoid {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		// Fall back to the avoided worker if it is the only live one.
		for _, w := range c.workers {
			if c.aliveLocked(w) {
				live = append(live, w)
			}
		}
	}
	if len(live) == 0 {
		return nil, false
	}
	sort.Slice(live, func(i, j int) bool { return live[i].url < live[j].url })
	c.rr++
	return live[c.rr%len(live)], true
}

func (c *Coordinator) markDead(w *workerState) {
	c.mu.Lock()
	w.dead = true
	c.mu.Unlock()
	c.obs.Record("worker.dead", obs.Label{Key: "worker", Value: w.url})
}

// LiveWorkers returns the number of currently live workers.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if c.aliveLocked(w) {
			n++
		}
	}
	return n
}

// RunCampaign executes the spec's campaign across the fleet: the library is
// partitioned into shards (shardCount <= 0 selects ShardsPerWorker × live
// workers), shards are dispatched with bounded fan-out and per-shard
// retries, and the merged result — byte-identical to a single-node run — is
// returned together with the bus width for report rendering and the fleet's
// engine attribution.
func (c *Coordinator) RunCampaign(ctx context.Context, spec campaign.Spec, shardCount int) (*sim.CampaignResult, int, FleetStats, error) {
	traceID := ""
	var span *obs.Span
	if c.obs.Enabled() {
		traceID = c.obs.Tracer.NewTraceID("f")
		ctx = obs.WithTracer(ctx, c.obs.Tracer, traceID)
		ctx, span = obs.StartSpan(ctx, "fleet.campaign",
			obs.Label{Key: "bus", Value: spec.Bus})
	}
	res, width, stats, err := c.runCampaign(ctx, spec, shardCount)
	stats.TraceID = traceID
	c.campaigns.Inc()
	if err != nil {
		c.campaignsFailed.Inc()
		span.SetAttr("error", err.Error())
	}
	span.SetAttr("shards", fmt.Sprint(stats.Shards))
	span.End()
	return res, width, stats, err
}

func (c *Coordinator) runCampaign(ctx context.Context, spec campaign.Spec, shardCount int) (*sim.CampaignResult, int, FleetStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, 0, FleetStats{}, err
	}
	spec = spec.Normalized()
	live := c.LiveWorkers()
	if live == 0 {
		return nil, 0, FleetStats{}, fmt.Errorf("fleet: no live workers registered")
	}
	if shardCount <= 0 {
		shardCount = c.cfg.ShardsPerWorker * live
	}
	key, err := specShardKey(spec, shardCount, c.plans.Hash)
	if err != nil {
		return nil, 0, FleetStats{}, err
	}
	plan, err := PlanShards(key, spec.Size, shardCount)
	if err != nil {
		return nil, 0, FleetStats{}, err
	}
	tgt, err := target.Parse(spec.Target)
	if err != nil {
		return nil, 0, FleetStats{}, err
	}
	width := tgt.Topology().Channels[spec.BusID()].Width

	inflight := c.cfg.MaxInFlight
	if inflight <= 0 {
		inflight = 2 * live
	}
	sem := make(chan struct{}, inflight)
	results := make([]sim.OutcomeShard, len(plan.Shards))
	stats := make([]FleetStats, len(plan.Shards))
	errs := make([]error, len(plan.Shards))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i, sh := range plan.Shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-sem }()
			c.shardsInflight.Add(1)
			defer c.shardsInflight.Add(-1)
			resp, st, err := c.dispatchShard(ctx, spec, plan, sh)
			if err != nil {
				errs[i] = err
				cancel() // one unrecoverable shard fails the campaign
				return
			}
			results[i] = sim.OutcomeShard{Start: resp.Start, Outcomes: resp.Outcomes}
			stats[i] = st
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, 0, FleetStats{}, fmt.Errorf("fleet: shard %d [%d, %d): %w",
				i, plan.Shards[i].Start, plan.Shards[i].End, err)
		}
	}
	var fs FleetStats
	fs.Shards = len(plan.Shards)
	for _, st := range stats {
		fs.Retries += st.Retries
		fs.ReplayHits += st.ReplayHits
		fs.Executed += st.Executed
	}
	res, err := sim.MergeOutcomes(spec.BusID(), plan.Total, results)
	if err != nil {
		return nil, 0, FleetStats{}, err
	}
	res.BusName = spec.Bus
	c.defectsMerged.Add(int64(plan.Total))
	return res, width, fs, nil
}

// dispatchShard runs one shard to completion: pick a live worker, post the
// assignment, and on failure mark the worker and retry elsewhere with
// exponential backoff, up to MaxAttempts.
func (c *Coordinator) dispatchShard(ctx context.Context, spec campaign.Spec, plan *ShardPlan, sh Shard) (resp *ShardResponse, st FleetStats, err error) {
	ctx, span := obs.StartSpan(ctx, "shard.dispatch",
		obs.Label{Key: "shard", Value: fmt.Sprint(sh.Index)},
		obs.Label{Key: "start", Value: fmt.Sprint(sh.Start)},
		obs.Label{Key: "end", Value: fmt.Sprint(sh.End)})
	if c.obs.Enabled() {
		t0 := time.Now()
		defer func() {
			c.shardDispatch.ObserveSince(t0)
			span.SetAttr("retries", fmt.Sprint(st.Retries))
			span.End()
		}()
	}
	var lastErr error
	avoid := ""
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			st.Retries++
			c.shardRetries.Inc()
			c.obs.Record("shard.retry",
				obs.Label{Key: "shard", Value: fmt.Sprint(sh.Index)},
				obs.Label{Key: "attempt", Value: fmt.Sprint(attempt)},
				obs.Label{Key: "error", Value: fmt.Sprint(lastErr)})
			backoff := c.cfg.Backoff << (attempt - 1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, st, ctx.Err()
			}
		}
		w, ok := c.pick(avoid)
		if !ok {
			lastErr = fmt.Errorf("fleet: no live workers (last error: %v)", lastErr)
			continue
		}
		span.SetAttr("worker", w.url)
		resp, err := c.postShard(ctx, w, spec, plan, sh)
		if err != nil {
			if ctx.Err() != nil {
				return nil, st, ctx.Err()
			}
			w.failures.Add(1)
			c.markDead(w)
			avoid = w.url
			lastErr = fmt.Errorf("worker %s: %w", w.url, err)
			continue
		}
		w.shards.Add(1)
		c.shardsDispatched.Inc()
		st.ReplayHits += resp.ReplayHits
		st.Executed += resp.Executed
		return resp, st, nil
	}
	return nil, st, fmt.Errorf("fleet: shard %d failed after %d attempts: %w", sh.Index, c.cfg.MaxAttempts, lastErr)
}

func (c *Coordinator) postShard(ctx context.Context, w *workerState, spec campaign.Spec, plan *ShardPlan, sh Shard) (*ShardResponse, error) {
	body, err := json.Marshal(ShardRequest{
		Spec:   spec,
		Key:    plan.Key,
		Shards: len(plan.Shards),
		Start:  sh.Start,
		End:    sh.End,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/fleet/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the trace so the worker's spans join this campaign's trace
	// (shipped back in the response and ingested below).
	obs.InjectHeader(ctx, req.Header)
	var t0 time.Time
	if c.obs.Enabled() {
		t0 = time.Now()
	}
	httpResp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return nil, fmt.Errorf("status %d: %s", httpResp.StatusCode, bytes.TrimSpace(msg))
	}
	var resp ShardResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("decoding shard response: %w", err)
	}
	if resp.Start != sh.Start || len(resp.Outcomes) != sh.Len() {
		return nil, fmt.Errorf("shard response covers [%d, %d), want [%d, %d)",
			resp.Start, resp.Start+len(resp.Outcomes), sh.Start, sh.End)
	}
	if c.obs.Enabled() {
		c.shardRoundtrip.ObserveSince(t0)
		c.obs.Tracer.Ingest(resp.Spans)
	}
	return &resp, nil
}
