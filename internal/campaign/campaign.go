// Package campaign is the job service tier above internal/sim: it accepts
// defect-simulation campaign specs, schedules them on a bounded worker pool
// shared across jobs, caches golden runners and defect libraries so repeated
// submissions do not recompute them, checkpoints per-defect outcomes so an
// interrupted job resumes where it stopped, and publishes progress events to
// subscribers. cmd/xtalkd exposes it over HTTP.
//
// Determinism is preserved end to end: a campaign run through the service
// produces exactly the result of a direct sim.Runner.Campaign call with the
// same spec, because per-defect runs are pure functions of (plan, bus
// parameters) and aggregation is shared (sim.Aggregate, index order).
package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/diagnose"
	"repro/internal/infield"
	"repro/internal/maf"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/target"
)

// Spec describes one campaign job: which bus to attack, how to obtain the
// self-test plan (an inline plan document or a generation config), and the
// defect library to simulate.
type Spec struct {
	// Target names the backend under test ("parwan", "widebus32", ...);
	// empty selects the default Parwan system. Left un-normalized so cache
	// and shard keys derived from older specs are unchanged.
	Target string `json:"target,omitempty"`
	// Bus is the channel under test, by the target's channel name ("addr" or
	// "data" for Parwan, "bus" for wide-bus targets).
	Bus string `json:"bus"`
	// Type selects the job's product: "campaign" (the plain coverage
	// campaign; the default), "diagnose" (detection-set dictionary with
	// localization), "minimize" (greedy set-cover test minimization with a
	// verification campaign), "rank" (per-wire vulnerability ranking), or
	// "infield" (the sliced in-field schedule with convergent coverage
	// accounting; see internal/infield). All types run the same base
	// simulation; infield partitions it into slices, the others differ in
	// the analysis phase.
	Type string `json:"type,omitempty"`
	// Signature, for diagnose jobs, lists observed failing MA test names
	// (maf.ParseFault forms, e.g. "dr[3]/fwd") to localize against the
	// dictionary.
	Signature []string `json:"signature,omitempty"`
	// Plan, when present, is an inline plan document (core.WritePlan form)
	// to run instead of generating one.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Compaction, MaxSessions and TargetOnly configure plan generation when
	// Plan is absent. TargetOnly restricts generation to the target bus's
	// tests (a smaller, faster plan).
	Compaction  bool `json:"compaction,omitempty"`
	MaxSessions int  `json:"max_sessions,omitempty"`
	TargetOnly  bool `json:"target_only,omitempty"`
	// Size, Sigma and Seed configure defect-library generation; zero Size
	// and Sigma select the paper's defaults (1000 defects, sigma 0.50).
	Size  int     `json:"size,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	Seed  int64   `json:"seed"`
	// CthFactor overrides the detectability-threshold factor; zero selects
	// the default (1.55).
	CthFactor float64 `json:"cth_factor,omitempty"`
	// Workers caps this job's concurrent defect runs; zero means "up to the
	// shared pool size". The shared pool bounds total concurrency anyway.
	Workers int `json:"workers,omitempty"`
	// Engine selects the simulation engine: "batch" (library-wide screening
	// sweep with resumed execution of the divergent remainder; see
	// sim.Batch) or "execute" (full execution for every defect, the
	// reference oracle). "auto" is the default spelling of "batch"; empty
	// normalizes to "auto". Both engines are exact.
	Engine string `json:"engine,omitempty"`
	// SliceCycles, Slices and IntervalMS configure infield jobs only.
	// SliceCycles is the per-slice golden-cycle budget (zero slices at the
	// finest granularity, one session per slice); Slices instead requests a
	// target slice count (mutually exclusive with SliceCycles); IntervalMS
	// paces recurring slices. See infield.Config.
	SliceCycles uint64 `json:"slice_cycles,omitempty"`
	Slices      int    `json:"slices,omitempty"`
	IntervalMS  int    `json:"interval_ms,omitempty"`
}

// The job product types a Spec.Type can select.
const (
	TypeCampaign = "campaign"
	TypeDiagnose = "diagnose"
	TypeMinimize = "minimize"
	TypeRank     = "rank"
	TypeInfield  = "infield"
)

// UnknownTypeError is the typed rejection of a Spec.Type outside the known
// job types, so callers can distinguish a misspelled type from other
// validation failures instead of matching error text.
type UnknownTypeError struct{ Type string }

func (e *UnknownTypeError) Error() string {
	return fmt.Sprintf("campaign: unknown job type %q (want campaign, diagnose, minimize, rank or infield)", e.Type)
}

// JobType resolves the spec's product type; empty selects TypeCampaign. The
// Type field itself is left un-normalized so cache and shard keys derived
// from older specs are unchanged.
func (s Spec) JobType() string {
	if s.Type == "" {
		return TypeCampaign
	}
	return s.Type
}

// TargetName resolves the spec's backend name; empty selects "parwan". The
// Target field itself is left un-normalized for key stability.
func (s Spec) TargetName() string {
	if s.Target == "" {
		return "parwan"
	}
	return s.Target
}

// backend resolves the spec's target backend.
func (s Spec) backend() (target.Target, error) {
	tgt, err := target.Parse(s.Target)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return tgt, nil
}

// Normalized returns the spec with generation defaults applied, so cache
// and shard keys do not distinguish "0" from "the default it selects".
func (s Spec) Normalized() Spec { return s.normalized() }

// Validate reports whether the spec is well-formed.
func (s Spec) Validate() error { return s.validate() }

// BusID resolves the spec's bus under test.
func (s Spec) BusID() core.BusID { return s.busID() }

// SpecPlan resolves the spec's self-test plan exactly as a serving node
// would: the inline document when present, otherwise a plan generated from
// the spec's generation config.
func SpecPlan(spec Spec) (*core.Plan, error) { return planFor(spec.normalized()) }

// SpecPlanHash resolves the spec's self-test plan (inline document or
// generated from the spec's generation config) and returns its content hash
// — the campaign identity every fleet node derives independently.
func SpecPlanHash(spec Spec) (string, error) {
	_, hash, err := hashedPlan(spec.normalized())
	return hash, err
}

// SpecCth resolves the detectability threshold the spec's Cth factor derives
// for the bus under test, another component of the campaign identity.
func SpecCth(spec Spec) (float64, error) {
	spec = spec.normalized()
	models, err := modelsFor(spec)
	if err != nil {
		return 0, err
	}
	return models[spec.busID()].Thresholds.Cth, nil
}

// normalized returns the spec with generation defaults applied, so cache
// keys do not distinguish "0" from "the default it selects".
func (s Spec) normalized() Spec {
	if s.Size == 0 {
		s.Size = defects.DefaultLibrarySize
	}
	if s.Sigma == 0 {
		s.Sigma = defects.DefaultSigma
	}
	if s.CthFactor == 0 {
		s.CthFactor = crosstalk.DefaultCthFactor
	}
	if s.Engine == "" {
		s.Engine = "auto"
	}
	return s
}

func (s Spec) validate() error {
	tgt, err := s.backend()
	if err != nil {
		return err
	}
	topo := tgt.Topology()
	if _, ok := topo.Channel(s.Bus); !ok {
		return fmt.Errorf("campaign: target %s has no bus %q (want one of %v)",
			tgt.Name(), s.Bus, topo.Names())
	}
	if s.Size < 0 {
		return fmt.Errorf("campaign: negative library size %d", s.Size)
	}
	if s.Sigma < 0 {
		return fmt.Errorf("campaign: negative sigma %g", s.Sigma)
	}
	if s.MaxSessions < 0 {
		return fmt.Errorf("campaign: negative max_sessions %d", s.MaxSessions)
	}
	if s.Workers < 0 {
		return fmt.Errorf("campaign: negative workers %d", s.Workers)
	}
	if _, err := sim.ParseEngine(s.Engine); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if len(s.Plan) > 0 {
		if _, err := core.ReadPlan(bytes.NewReader(s.Plan)); err != nil {
			return fmt.Errorf("campaign: inline plan: %w", err)
		}
	}
	switch s.JobType() {
	case TypeCampaign, TypeDiagnose, TypeMinimize, TypeRank, TypeInfield:
	default:
		return &UnknownTypeError{Type: s.Type}
	}
	if len(s.Signature) > 0 && s.JobType() != TypeDiagnose {
		return fmt.Errorf("campaign: signature is only meaningful for diagnose jobs, not %q", s.JobType())
	}
	if s.Slices < 0 {
		return fmt.Errorf("campaign: negative slice count %d", s.Slices)
	}
	if s.IntervalMS < 0 {
		return fmt.Errorf("campaign: negative slice interval %dms", s.IntervalMS)
	}
	if s.JobType() == TypeInfield {
		if s.Slices > 0 && s.SliceCycles > 0 {
			return errors.New("campaign: slices and slice_cycles are mutually exclusive")
		}
	} else if s.SliceCycles != 0 || s.Slices != 0 || s.IntervalMS != 0 {
		return fmt.Errorf("campaign: slice_cycles, slices and interval_ms are only meaningful for infield jobs, not %q", s.JobType())
	}
	if s.JobType() == TypeMinimize && len(s.Plan) > 0 {
		// The minimized program is regenerated from the generation config
		// with a fault filter; an inline plan has no config to regenerate
		// from.
		return errors.New("campaign: minimize jobs need a generation config, not an inline plan")
	}
	return nil
}

// engine resolves the spec's engine name; validate has already vetted it.
func (s Spec) engine() sim.Engine {
	e, _ := sim.ParseEngine(s.Engine)
	return e
}

func (s Spec) busID() core.BusID {
	if tgt, err := target.Parse(s.Target); err == nil {
		if id, ok := tgt.Topology().Channel(s.Bus); ok {
			return id
		}
	}
	if s.Bus == "data" {
		return core.DataBus
	}
	return core.AddrBus
}

// State is a job's lifecycle phase.
type State string

// Job states. Canceled and Failed jobs keep their checkpoint and may be
// resumed.
const (
	Pending  State = "pending"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether the state is final (until a resume).
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Progress is one progress event: counts over the defect library so far.
// ReplayHits counts defects the batched sweep resolved without CPU
// execution; Executed counts defects that needed execution (a fallback
// under the batched engine, every defect under the execute engine).
type Progress struct {
	State State `json:"state"`
	// Type is the job's product type (Spec.JobType); Phase is the stage
	// within the job: "simulate" while the base campaign runs, "analyze"
	// while detection sets are processed, and "verify" while a minimize
	// job's verification campaign re-simulates the minimized program. The
	// defect counters below always describe the simulate phase.
	Type        string `json:"type,omitempty"`
	Phase       string `json:"phase,omitempty"`
	Done        int    `json:"done"`
	Total       int    `json:"total"`
	Detected    int    `json:"detected"`
	Activations int64  `json:"activations"`
	ReplayHits  int    `json:"replay_hits"`
	Executed    int    `json:"executed"`
	// Slice, Slices and Coverage describe infield jobs: slices merged into
	// the coverage ledger so far, the manifest's total slice count, and the
	// cumulative detected fraction of the defect library. For infield jobs
	// Done/Total count defect runs across all slices and Detected is the
	// ledger's cumulative detection count.
	Slice    int     `json:"slice,omitempty"`
	Slices   int     `json:"slices,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
	// Drift is the in-field drift verdict once a completed run has been
	// compared against (or saved as) its manifest key's baseline curve:
	// "baseline", "ok", or "drift", with the violated tolerances in
	// DriftReasons.
	Drift        string   `json:"drift,omitempty"`
	DriftReasons []string `json:"drift_reasons,omitempty"`
}

// Job phases reported in Progress.Phase.
const (
	PhaseSimulate = "simulate"
	PhaseAnalyze  = "analyze"
	PhaseVerify   = "verify"
	// PhaseWorkload marks an infield job executing the functional-workload
	// phase interleaved before its next test slice.
	PhaseWorkload = "workload"
)

// Status is a point-in-time snapshot of a job, JSON-ready.
type Status struct {
	ID           string    `json:"id"`
	State        State     `json:"state"`
	Spec         Spec      `json:"spec"`
	Progress     Progress  `json:"progress"`
	Error        string    `json:"error,omitempty"`
	GoldenCached bool      `json:"golden_cached"`
	LibCached    bool      `json:"library_cached"`
	Submitted    time.Time `json:"submitted"`
	Started      time.Time `json:"started,omitempty"`
	Finished     time.Time `json:"finished,omitempty"`
}

// Job is one submitted campaign.
type Job struct {
	id   string
	spec Spec // normalized

	mu           sync.Mutex
	state        State
	progress     Progress
	outcomes     []sim.Outcome // checkpoint, by library index
	completed    []bool
	ledger       *infield.Ledger // infield jobs: the slice-merge checkpoint
	result       *sim.CampaignResult
	analysis     *Analysis
	err          error
	width        int // bus width, for Fig. 11 rendering
	goldenCached bool
	libCached    bool
	submitted    time.Time
	started      time.Time
	finished     time.Time
	cancel       context.CancelFunc
	done         chan struct{}
	subs         map[int]chan Progress
	nextSub      int
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's normalized spec.
func (j *Job) Spec() Spec { return j.spec }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:           j.id,
		State:        j.state,
		Spec:         j.spec,
		Progress:     j.progress,
		GoldenCached: j.goldenCached,
		LibCached:    j.libCached,
		Submitted:    j.submitted,
		Started:      j.started,
		Finished:     j.finished,
	}
	st.Progress.State = j.state
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Result returns the campaign result and the bus width once the job is
// done.
func (j *Job) Result() (*sim.CampaignResult, int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done || j.result == nil {
		return nil, 0, false
	}
	return j.result, j.width, true
}

// Analysis is the product of a terminal diagnose, minimize, rank or infield
// job; exactly one field is set, matching the job type. Campaign jobs have
// none.
type Analysis struct {
	Diagnosis *report.DiagnosisJSON
	Minimize  *report.MinimizeJSON
	Rank      *report.RankJSON
	Infield   *report.InfieldJSON
}

// Analysis returns the job's analysis product once done; ok is false for
// plain campaign jobs and non-terminal states.
func (j *Job) Analysis() (*Analysis, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done || j.analysis == nil {
		return nil, false
	}
	return j.analysis, true
}

// setPhase moves the job to a new phase and publishes the transition.
func (j *Job) setPhase(phase string) {
	j.mu.Lock()
	j.progress.Phase = phase
	j.publishLocked()
	j.mu.Unlock()
}

// Err returns the job's failure, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done returns a channel closed when the job reaches a terminal state. A
// resume replaces the channel, so callers should re-fetch it per wait.
func (j *Job) Done() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// Subscribe registers a progress listener. The channel has latest-value
// semantics: a slow consumer sees the newest event, not a backlog. The
// returned cancel function unregisters (idempotent). A final event carrying
// the terminal state is always delivered.
func (j *Job) Subscribe() (<-chan Progress, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Progress, 1)
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	// Seed with the current snapshot so subscribers need not wait for the
	// next defect to learn where the job stands.
	p := j.progress
	p.State = j.state
	ch <- p
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		delete(j.subs, id)
	}
}

// publishLocked pushes the current progress to all subscribers; j.mu held.
func (j *Job) publishLocked() {
	p := j.progress
	p.State = j.state
	for _, ch := range j.subs {
		select {
		case ch <- p:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
	}
}

// Metrics is a snapshot of the manager's counters.
type Metrics struct {
	JobsSubmitted    int64 `json:"jobs_submitted"`
	JobsCompleted    int64 `json:"jobs_completed"`
	JobsFailed       int64 `json:"jobs_failed"`
	JobsCanceled     int64 `json:"jobs_canceled"`
	JobsResumed      int64 `json:"jobs_resumed"`
	DefectsSimulated int64 `json:"defects_simulated"`
	// ShardsServed counts fleet shard assignments this node executed as a
	// worker (see internal/fleet and Manager.RunShard).
	ShardsServed       int64 `json:"shards_served"`
	GoldenCacheHits    int64 `json:"golden_cache_hits"`
	GoldenCacheMisses  int64 `json:"golden_cache_misses"`
	LibraryCacheHits   int64 `json:"library_cache_hits"`
	LibraryCacheMisses int64 `json:"library_cache_misses"`
	// PlanCacheHits counts plan resolutions the node's plan memo served
	// (jobs, shards and shard-key checks); PlanCacheMisses counts the plan
	// generations it performed. Inline plans count as neither.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	// InfieldSlices counts slices executed and merged by infield jobs;
	// InfieldDetections and InfieldGap mirror the cumulative-coverage
	// gauges of the most recent merge; InfieldWorkloadCycles totals the
	// functional cycles interleaved between slices.
	InfieldSlices         int64 `json:"infield_slices_run"`
	InfieldDetections     int64 `json:"infield_cumulative_detections"`
	InfieldGap            int64 `json:"infield_convergence_gap"`
	InfieldWorkloadCycles int64 `json:"infield_workload_cycles"`
	// InfieldDriftAlerts counts completed in-field runs whose coverage
	// curve drifted beyond tolerance of their manifest key's baseline.
	InfieldDriftAlerts int64 `json:"infield_drift_alerts"`
	Workers            int   `json:"workers"`
	BusyWorkers        int   `json:"busy_workers"`
	// Engine is the aggregate of every cached runner's engine counters:
	// sweep-tier hits, execution fallbacks, forced executions, and
	// channel-memo traffic (see sim.EngineStats).
	Engine sim.EngineStats `json:"engine"`
}

// Config tunes a Manager.
type Config struct {
	// Workers is the shared defect-run concurrency bound across all jobs;
	// zero selects GOMAXPROCS.
	Workers int
	// Obs is the telemetry bundle the manager registers its metrics in and
	// emits spans and events to; nil selects a fresh enabled bundle with a
	// discarded log stream. Pass obs.Disabled() for a metrics-only manager
	// (the telemetry-off benchmark baseline).
	Obs *obs.Telemetry
	// BaselineDir persists in-field coverage baselines (one JSON file per
	// manifest key) so drift detection survives daemon restarts; empty
	// keeps baselines in memory only.
	BaselineDir string
	// DriftTolerance is the in-field drift band; the zero value selects
	// the infield.Tolerance defaults.
	DriftTolerance infield.Tolerance
}

type libKey struct {
	target string
	bus    string
	size   int
	sigma  float64
	seed   int64
	cth    float64
}

// Manager owns the job table, the shared worker pool and the caches.
type Manager struct {
	slots chan struct{}
	obs   *obs.Telemetry
	plans *PlanMemo

	// The golden-runner and defect-library caches; the runner key is
	// target, plan hash and Cth factor.
	runners flightCache[string, *sim.Runner]
	libs    flightCache[libKey, *defects.Library]

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job
	order  []string
	seq    int

	wg sync.WaitGroup // running jobs, for Drain

	// All counters live in the obs registry, so the three concerns — the
	// Metrics() snapshot API, the /metrics exposition, and synchronized
	// concurrent reads — share one atomic source of truth.
	jobsSubmitted, jobsCompleted, jobsFailed, jobsCanceled, jobsResumed *obs.Counter
	defectsSimulated, shardsServed                                      *obs.Counter
	goldenHits, goldenMisses, libHits, libMisses                        *obs.Counter
	infieldSlices, infieldWorkloadCycles                                *obs.Counter
	infieldDetections, infieldGap                                       *obs.Gauge
	infieldDriftAlerts                                                  *obs.Counter
	simLatency                                                          map[string]*obs.Histogram // per engine tier
	queueWait                                                           *obs.Histogram
	infieldSliceLatency                                                 *obs.Histogram

	baselines *infield.BaselineStore
	driftTol  infield.Tolerance
}

// New builds a manager with an idle shared pool.
func New(cfg Config) *Manager {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	t := cfg.Obs
	if t == nil {
		t = obs.NewTelemetry()
	}
	m := &Manager{
		slots:     make(chan struct{}, w),
		obs:       t,
		plans:     NewPlanMemo(),
		jobs:      make(map[string]*Job),
		baselines: infield.NewBaselineStore(cfg.BaselineDir),
		driftTol:  cfg.DriftTolerance,
	}
	reg := t.Reg
	m.jobsSubmitted = reg.Counter("xtalkd_jobs_submitted_total", "campaign jobs accepted")
	m.jobsCompleted = reg.Counter("xtalkd_jobs_completed_total", "campaign jobs finished successfully")
	m.jobsFailed = reg.Counter("xtalkd_jobs_failed_total", "campaign jobs ended in error")
	m.jobsCanceled = reg.Counter("xtalkd_jobs_canceled_total", "campaign jobs canceled")
	m.jobsResumed = reg.Counter("xtalkd_jobs_resumed_total", "campaign jobs resumed from checkpoint")
	m.defectsSimulated = reg.Counter("xtalkd_defects_simulated_total", "defect runs completed (jobs and shards)")
	m.shardsServed = reg.Counter("xtalkd_fleet_shards_served_total", "fleet shard assignments executed as a worker")
	m.goldenHits = reg.Counter("xtalkd_golden_cache_hits_total", "golden runner cache hits")
	m.goldenMisses = reg.Counter("xtalkd_golden_cache_misses_total", "golden runner cache misses")
	m.libHits = reg.Counter("xtalkd_library_cache_hits_total", "defect library cache hits")
	m.libMisses = reg.Counter("xtalkd_library_cache_misses_total", "defect library cache misses")
	reg.CounterFunc("xtalkd_plan_cache_hits_total", "self-test plan resolutions served by the plan memo",
		func() float64 { hits, _ := m.plans.Stats(); return float64(hits) })
	reg.CounterFunc("xtalkd_plan_cache_misses_total", "self-test plans generated (plan memo misses)",
		func() float64 { _, misses := m.plans.Stats(); return float64(misses) })
	m.infieldSlices = reg.Counter("xtalkd_infield_slices_run_total", "in-field test slices executed and merged into a coverage ledger")
	m.infieldWorkloadCycles = reg.Counter("xtalkd_infield_workload_cycles_total", "functional-workload cycles interleaved between in-field slices")
	m.infieldDetections = reg.Gauge("xtalkd_infield_cumulative_detections", "cumulative defects detected by the most recently merged in-field slice")
	m.infieldGap = reg.Gauge("xtalkd_infield_convergence_gap", "defects not yet detected by the in-field ledger (converges to the one-shot campaign's undetected count)")
	m.infieldDriftAlerts = reg.Counter("xtalkd_infield_drift_alerts_total",
		"completed in-field runs whose coverage curve drifted beyond tolerance of their baseline")
	reg.GaugeFunc("xtalkd_infield_baselines", "in-field coverage baselines held (one per manifest key)",
		func() float64 { return float64(m.baselines.Len()) })
	reg.GaugeFunc("xtalkd_workers", "shared defect-run worker pool size",
		func() float64 { return float64(cap(m.slots)) })
	reg.GaugeFunc("xtalkd_workers_busy", "defect runs currently holding a pool slot",
		func() float64 { return float64(len(m.slots)) })
	reg.GaugeFunc("xtalkd_jobs_pending", "jobs accepted and waiting to start (the queue depth)",
		func() float64 { return float64(m.jobsInState(Pending)) })
	reg.CounterFunc("xtalkd_engine_replay_hits_total", "defects the batched screening sweep settled without resumed execution",
		m.engineStat(func(s sim.EngineStats) int64 { return s.ReplayHits }))
	reg.CounterFunc("xtalkd_engine_fallbacks_total", "batched-engine defects whose sweep diverged and that resumed execution",
		m.engineStat(func(s sim.EngineStats) int64 { return s.Fallbacks }))
	reg.CounterFunc("xtalkd_engine_executes_total", "defect runs performed by the execute tier",
		m.engineStat(func(s sim.EngineStats) int64 { return s.Executes }))
	reg.CounterFunc("xtalkd_engine_degraded_executes_total", "batched-engine defect runs degraded to full execution (golden traffic erred, so the sweep is void)",
		m.engineStat(func(s sim.EngineStats) int64 { return s.DegradedExecutes }))
	reg.CounterFunc("xtalkd_engine_batch_screened_total", "defects cleared by the batched library-wide screening sweep",
		m.engineStat(func(s sim.EngineStats) int64 { return s.BatchScreened }))
	reg.CounterFunc("xtalkd_engine_batch_sweeps_total", "session-trace sweeps performed by the batched screening pass",
		m.engineStat(func(s sim.EngineStats) int64 { return s.BatchSweeps }))
	reg.CounterFunc("xtalkd_channel_memo_hits_total", "channel-transmit memo hits",
		m.engineStat(func(s sim.EngineStats) int64 { return s.MemoHits }))
	reg.CounterFunc("xtalkd_channel_memo_misses_total", "channel-transmit memo misses",
		m.engineStat(func(s sim.EngineStats) int64 { return s.MemoMisses }))
	reg.CounterFunc("xtalkd_channel_memo_unsupported_total", "defective channels too wide for the transmit memo (ran memo-off)",
		m.engineStat(func(s sim.EngineStats) int64 { return s.MemoUnsupported }))
	m.simLatency = map[string]*obs.Histogram{
		"replay": reg.Histogram("xtalkd_sim_defect_seconds", "per-defect simulation latency by engine tier",
			nil, obs.Label{Key: "tier", Value: "replay"}),
		"fallback": reg.Histogram("xtalkd_sim_defect_seconds", "per-defect simulation latency by engine tier",
			nil, obs.Label{Key: "tier", Value: "fallback"}),
		"execute": reg.Histogram("xtalkd_sim_defect_seconds", "per-defect simulation latency by engine tier",
			nil, obs.Label{Key: "tier", Value: "execute"}),
	}
	m.queueWait = reg.Histogram("xtalkd_job_queue_wait_seconds",
		"delay between job acceptance and its run starting", nil)
	m.infieldSliceLatency = reg.Histogram("xtalkd_infield_slice_seconds",
		"one in-field test slice's wall-clock latency (run + merge)", nil)
	// Default service objectives, evaluated by the SLO engine's tick loop
	// (cmd/xtalkd). The latency thresholds round up to the enclosing
	// DurationBuckets bound; see Histogram.CountLE.
	t.SLO.Add(obs.Objective{
		Name:        "infield_slice_latency",
		Description: "in-field test slices stay under 150 ms (a slice is a small interruption of the functional workload, not a full campaign)",
		Source:      obs.HistogramLatencySource(m.infieldSliceLatency, 0.15),
		Budget:      0.01,
	})
	t.SLO.Add(obs.Objective{
		Name:        "job_queue_wait",
		Description: "jobs start within ~1 s of acceptance",
		Source:      obs.HistogramLatencySource(m.queueWait, 1.0),
		Budget:      0.05,
	})
	t.SLO.Add(obs.Objective{
		Name:        "degraded_execute_ratio",
		Description: "batched-engine runs degraded to full execution (golden traffic erred, so the sweep is void) stay rare relative to total defect runs",
		Source: obs.RatioSource(
			func() float64 { return float64(m.defectsSimulated.Value()) },
			m.engineStat(func(s sim.EngineStats) int64 { return s.DegradedExecutes })),
		Budget: 0.05,
	})
	return m
}

// jobsInState counts jobs currently in the given state (scrape-time).
func (m *Manager) jobsInState(s State) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state == s {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Baselines exposes the in-field drift baseline store (tests and the drift
// check use it).
func (m *Manager) Baselines() *infield.BaselineStore { return m.baselines }

// engineStat builds a scrape-time aggregate over every cached runner's
// engine counters.
func (m *Manager) engineStat(get func(sim.EngineStats) int64) func() float64 {
	return func() float64 {
		var total int64
		m.runners.each(func(r *sim.Runner) { total += get(r.Stats()) })
		return float64(total)
	}
}

// Workers returns the shared pool size.
func (m *Manager) Workers() int { return cap(m.slots) }

// Obs returns the manager's telemetry bundle (never nil).
func (m *Manager) Obs() *obs.Telemetry { return m.obs }

// Plans returns the manager's plan memo, which its jobs and shards resolve
// plans through (a fleet worker checks shard keys against it too).
func (m *Manager) Plans() *PlanMemo { return m.plans }

// HealthFacts snapshots live registry facts for /healthz: pool occupancy and
// the job table by state.
func (m *Manager) HealthFacts() map[string]any {
	m.mu.Lock()
	byState := make(map[string]int)
	for _, j := range m.jobs {
		j.mu.Lock()
		byState[string(j.state)]++
		j.mu.Unlock()
	}
	jobs := len(m.jobs)
	m.mu.Unlock()
	facts := map[string]any{
		"workers":       cap(m.slots),
		"busy_workers":  len(m.slots),
		"jobs":          jobs,
		"jobs_by_state": byState,
	}
	if sum := m.obs.SLO.Summary(); sum != nil {
		facts["alerts"] = sum
	}
	return facts
}

// Metrics snapshots the counters.
func (m *Manager) Metrics() Metrics {
	var eng sim.EngineStats
	m.runners.each(func(r *sim.Runner) {
		s := r.Stats()
		eng.ReplayHits += s.ReplayHits
		eng.Fallbacks += s.Fallbacks
		eng.Executes += s.Executes
		eng.DegradedExecutes += s.DegradedExecutes
		eng.BatchScreened += s.BatchScreened
		eng.BatchSweeps += s.BatchSweeps
		eng.MemoHits += s.MemoHits
		eng.MemoMisses += s.MemoMisses
		eng.MemoUnsupported += s.MemoUnsupported
	})
	planHits, planMisses := m.plans.Stats()
	return Metrics{
		Engine:                eng,
		JobsSubmitted:         m.jobsSubmitted.Value(),
		JobsCompleted:         m.jobsCompleted.Value(),
		JobsFailed:            m.jobsFailed.Value(),
		JobsCanceled:          m.jobsCanceled.Value(),
		JobsResumed:           m.jobsResumed.Value(),
		DefectsSimulated:      m.defectsSimulated.Value(),
		ShardsServed:          m.shardsServed.Value(),
		GoldenCacheHits:       m.goldenHits.Value(),
		GoldenCacheMisses:     m.goldenMisses.Value(),
		LibraryCacheHits:      m.libHits.Value(),
		LibraryCacheMisses:    m.libMisses.Value(),
		PlanCacheHits:         planHits,
		PlanCacheMisses:       planMisses,
		InfieldSlices:         m.infieldSlices.Value(),
		InfieldDetections:     m.infieldDetections.Value(),
		InfieldGap:            m.infieldGap.Value(),
		InfieldWorkloadCycles: m.infieldWorkloadCycles.Value(),
		InfieldDriftAlerts:    m.infieldDriftAlerts.Value(),
		Workers:               cap(m.slots),
		BusyWorkers:           len(m.slots),
	}
}

// Submit validates the spec, registers a job and starts it asynchronously.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	spec = spec.normalized()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("campaign: manager is draining; not accepting jobs")
	}
	m.seq++
	job := &Job{
		id:        fmt.Sprintf("c%06d", m.seq),
		spec:      spec,
		state:     Pending,
		submitted: time.Now(),
		done:      make(chan struct{}),
		subs:      make(map[int]chan Progress),
	}
	ctx, cancel := context.WithCancel(context.Background())
	job.cancel = cancel
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.wg.Add(1)
	m.mu.Unlock()
	m.jobsSubmitted.Inc()
	m.obs.Record("job.submit",
		obs.Label{Key: "job", Value: job.id},
		obs.Label{Key: "bus", Value: spec.Bus},
		obs.Label{Key: "engine", Value: spec.Engine})
	go m.run(ctx, job, time.Now())
	return job, nil
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel requests cancellation of a pending or running job. The job stops
// within one defect-run granularity and keeps its checkpoint.
func (m *Manager) Cancel(id string) error {
	job, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("campaign: no job %q", id)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state.Terminal() {
		return fmt.Errorf("campaign: job %s already %s", id, job.state)
	}
	job.cancel()
	return nil
}

// CancelAll cancels every non-terminal job (used on forced shutdown).
func (m *Manager) CancelAll() {
	for _, job := range m.Jobs() {
		job.mu.Lock()
		if !job.state.Terminal() {
			job.cancel()
		}
		job.mu.Unlock()
	}
}

// Resume restarts a canceled or failed job from its checkpoint: defects
// whose outcomes were already recorded are not re-simulated.
func (m *Manager) Resume(id string) (*Job, error) {
	job, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("campaign: no job %q", id)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("campaign: manager is draining; not accepting jobs")
	}
	job.mu.Lock()
	if job.state != Canceled && job.state != Failed {
		st := job.state
		job.mu.Unlock()
		m.mu.Unlock()
		return nil, fmt.Errorf("campaign: job %s is %s; only canceled or failed jobs resume", id, st)
	}
	ctx, cancel := context.WithCancel(context.Background())
	job.state = Pending
	job.err = nil
	job.finished = time.Time{}
	job.cancel = cancel
	job.done = make(chan struct{})
	job.mu.Unlock()
	m.wg.Add(1)
	m.mu.Unlock()
	m.jobsResumed.Inc()
	m.obs.Record("job.resume", obs.Label{Key: "job", Value: job.id})
	go m.run(ctx, job, time.Now())
	return job, nil
}

// Drain stops accepting new jobs and waits for running ones to finish, up
// to ctx's deadline.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// modelsFor derives the spec's per-channel nominal bus models, indexed by
// channel ID.
func modelsFor(spec Spec) ([]sim.BusSetup, error) {
	tgt, err := spec.backend()
	if err != nil {
		return nil, err
	}
	return tgt.BusModels(spec.CthFactor)
}

// planFor obtains the job's plan: inline document or generated from config.
func planFor(spec Spec) (*core.Plan, error) {
	if len(spec.Plan) > 0 {
		return core.ReadPlan(bytes.NewReader(spec.Plan))
	}
	tgt, err := spec.backend()
	if err != nil {
		return nil, err
	}
	return tgt.Generate(genSpec(spec))
}

// PlanHash is the cache identity of a plan: SHA-256 over its canonical
// serialized form (core.WritePlan output).
func PlanHash(p *core.Plan) (string, error) {
	var buf bytes.Buffer
	if err := core.WritePlan(&buf, p); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// runnerFor returns a cached golden runner for (target, plan hash, cth),
// building and caching one on miss; hash is the plan's PlanHash. Runners are
// read-only after construction, so one instance safely serves concurrent
// jobs.
func (m *Manager) runnerFor(tgt target.Target, plan *core.Plan, hash string, models []sim.BusSetup, cth float64) (*sim.Runner, bool, error) {
	key := fmt.Sprintf("%s|%s|cth=%g", tgt.Name(), hash, cth)
	r, hit, err := m.runners.get(key, func() (*sim.Runner, error) {
		return sim.NewTargetRunner(tgt, plan, models)
	})
	if hit {
		m.goldenHits.Add(1)
	} else {
		m.goldenMisses.Add(1)
	}
	return r, hit, err
}

// libraryFor returns a cached defect library for the spec, generating and
// caching one on miss. Libraries are read-only during campaigns.
func (m *Manager) libraryFor(spec Spec, setup sim.BusSetup) (*defects.Library, bool, error) {
	key := libKey{target: spec.TargetName(), bus: spec.Bus, size: spec.Size,
		sigma: spec.Sigma, seed: spec.Seed, cth: setup.Thresholds.Cth}
	lib, hit, err := m.libs.get(key, func() (*defects.Library, error) {
		return defects.Generate(setup.Nominal, setup.Thresholds,
			defects.Config{Size: spec.Size, Sigma: spec.Sigma, Seed: spec.Seed})
	})
	if hit {
		m.libHits.Add(1)
	} else {
		m.libMisses.Add(1)
	}
	return lib, hit, err
}

// run executes a job to a terminal state. enqueued is when the job entered
// the table (submission or resume), for the queue-wait histogram.
func (m *Manager) run(ctx context.Context, job *Job, enqueued time.Time) {
	defer m.wg.Done()
	if m.obs.Enabled() {
		m.queueWait.ObserveSince(enqueued)
		// The job ID is the trace ID, so GET /debug/trace/{jobID} finds the
		// trace by the identifier operators already hold.
		ctx = obs.WithTracer(ctx, m.obs.Tracer, job.id)
	}
	ctx, span := obs.StartSpan(ctx, "job.run",
		obs.Label{Key: "job", Value: job.id},
		obs.Label{Key: "bus", Value: job.spec.Bus},
		obs.Label{Key: "engine", Value: job.spec.Engine})
	job.mu.Lock()
	job.state = Running
	job.started = time.Now()
	job.progress.Type = job.spec.JobType()
	job.progress.Phase = PhaseSimulate
	job.publishLocked()
	job.mu.Unlock()
	m.obs.Record("job.state", obs.Label{Key: "job", Value: job.id}, obs.Label{Key: "state", Value: string(Running)})

	var res *sim.CampaignResult
	var analysis *Analysis
	var err error
	if job.spec.JobType() == TypeInfield {
		res, analysis, err = m.executeInfield(ctx, job)
	} else {
		var env *execEnv
		res, env, err = m.execute(ctx, job)
		if err == nil && job.spec.JobType() != TypeCampaign {
			analysis, err = m.analyze(ctx, job, res, env)
		}
	}

	job.mu.Lock()
	switch {
	case err == nil:
		job.state = Done
		job.result = res
		job.analysis = analysis
		m.jobsCompleted.Inc()
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		job.state = Canceled
		job.err = context.Canceled
		m.jobsCanceled.Inc()
	default:
		job.state = Failed
		job.err = err
		m.jobsFailed.Inc()
	}
	terminal := job.state
	job.finished = time.Now()
	job.publishLocked()
	close(job.done)
	job.mu.Unlock()
	m.obs.Record("job.state", obs.Label{Key: "job", Value: job.id}, obs.Label{Key: "state", Value: string(terminal)})
	span.SetAttr("state", string(terminal))
	span.End()
}

// execEnv carries the cached artifacts execute resolved, so the analysis
// phase of diagnose/minimize/rank jobs reuses them instead of re-deriving.
type execEnv struct {
	tgt     target.Target
	plan    *core.Plan
	models  []sim.BusSetup // per channel ID
	setup   sim.BusSetup   // the bus under test
	lib     *defects.Library
	workers int
}

// execute performs the cached setup steps and the campaign proper.
func (m *Manager) execute(ctx context.Context, job *Job) (*sim.CampaignResult, *execEnv, error) {
	spec := job.spec
	_, setupSpan := obs.StartSpan(ctx, "job.setup")
	tgt, err := spec.backend()
	if err != nil {
		setupSpan.End()
		return nil, nil, err
	}
	models, err := tgt.BusModels(spec.CthFactor)
	if err != nil {
		setupSpan.End()
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		setupSpan.End()
		return nil, nil, err
	}
	plan, hash, planHit, err := m.plans.Resolve(spec)
	if err != nil {
		setupSpan.End()
		return nil, nil, err
	}
	runner, goldenHit, err := m.runnerFor(tgt, plan, hash, models, spec.CthFactor)
	if err != nil {
		setupSpan.End()
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		setupSpan.End()
		return nil, nil, err
	}
	setup := models[spec.busID()]
	lib, libHit, err := m.libraryFor(spec, setup)
	setupSpan.SetAttr("plan_cached", fmt.Sprint(planHit))
	setupSpan.SetAttr("golden_cached", fmt.Sprint(goldenHit))
	setupSpan.SetAttr("library_cached", fmt.Sprint(libHit))
	setupSpan.End()
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	job.mu.Lock()
	job.goldenCached = goldenHit
	job.libCached = libHit
	job.width = setup.Nominal.Width
	if len(job.outcomes) != len(lib.Defects) {
		// First run (or a resume whose library size changed, which cannot
		// happen for an unchanged spec): fresh checkpoint.
		job.outcomes = make([]sim.Outcome, len(lib.Defects))
		job.completed = make([]bool, len(lib.Defects))
	}
	// Rebuild progress from the checkpoint so a resumed job reports
	// monotone counts continuing where it stopped.
	p := Progress{Total: len(lib.Defects), Type: spec.JobType(), Phase: PhaseSimulate}
	for i, done := range job.completed {
		if !done {
			continue
		}
		p.Done++
		if job.outcomes[i].Detected {
			p.Detected++
		}
		p.Activations += int64(job.outcomes[i].Activations)
		if job.outcomes[i].Replayed {
			p.ReplayHits++
		} else {
			p.Executed++
		}
	}
	job.progress = p
	job.publishLocked()
	job.mu.Unlock()

	workers := spec.Workers
	if workers <= 0 || workers > cap(m.slots) {
		workers = cap(m.slots)
	}
	opts := sim.CampaignOpts{
		Workers: workers,
		Slots:   m.slots,
		Skip: func(i int) (sim.Outcome, bool) {
			job.mu.Lock()
			defer job.mu.Unlock()
			if job.completed[i] {
				return job.outcomes[i], true
			}
			return sim.Outcome{}, false
		},
		OnOutcome: func(i int, out sim.Outcome) {
			job.mu.Lock()
			defer job.mu.Unlock()
			if job.completed[i] {
				return // checkpoint replay; already counted
			}
			job.completed[i] = true
			job.outcomes[i] = out
			job.progress.Done++
			if out.Detected {
				job.progress.Detected++
			}
			job.progress.Activations += int64(out.Activations)
			if out.Replayed {
				job.progress.ReplayHits++
			} else {
				job.progress.Executed++
			}
			m.defectsSimulated.Inc()
			job.publishLocked()
		},
		Engine: spec.engine(),
	}
	if m.obs.Enabled() {
		observe := m.observeTier(spec.engine())
		var fellBack atomic.Bool
		opts.Observe = func(out sim.Outcome, d time.Duration) {
			observe(out, d)
			// One event per job, not per defect: the fact that the sweep
			// tier gave up is interesting; its thousandth repetition is not.
			if !out.Replayed && opts.Engine == sim.Batch && fellBack.CompareAndSwap(false, true) {
				m.obs.Record("engine.fallback", obs.Label{Key: "job", Value: job.id})
			}
		}
	}
	cctx, campSpan := obs.StartSpan(ctx, "job.campaign",
		obs.Label{Key: "defects", Value: fmt.Sprint(len(lib.Defects))})
	res, err := runner.CampaignCtx(cctx, spec.busID(), lib, opts)
	campSpan.End()
	if err != nil {
		return nil, nil, err
	}
	env := &execEnv{tgt: tgt, plan: plan, models: models, setup: setup, lib: lib, workers: workers}
	return res, env, nil
}

// analyze runs a non-campaign job's analysis phase over the base campaign's
// outcomes. For minimize jobs it additionally regenerates the minimized
// program and runs the verification campaign (not checkpointed: a resumed
// minimize job replays the base campaign from its checkpoint and repeats
// verification from scratch).
func (m *Manager) analyze(ctx context.Context, job *Job, res *sim.CampaignResult, env *execEnv) (*Analysis, error) {
	spec := job.spec
	job.setPhase(PhaseAnalyze)
	ctx, span := obs.StartSpan(ctx, "job.analyze",
		obs.Label{Key: "type", Value: spec.JobType()})
	defer span.End()
	verifying := false
	return AnalyzeOutcomes(spec, res.Outcomes, env.setup.Nominal.Width, env.lib, env.plan,
		func(minPlan *core.Plan) ([]sim.Outcome, error) {
			if !verifying {
				verifying = true
				job.setPhase(PhaseVerify)
			}
			vres, err := m.verifyCampaign(ctx, spec, minPlan, env)
			if err != nil {
				return nil, err
			}
			return vres.Outcomes, nil
		})
}

// AnalyzeOutcomes builds a diagnose, minimize or rank job's analysis product
// from a completed base campaign: outcomes in library order, the bus width,
// the defect library, and the full plan the campaign ran. simulateMin
// re-simulates the same library under a minimized plan and returns outcomes
// in the same order; it is only called for minimize jobs (the verify-augment
// loop, one call per round). The manager's analysis phase and the CLI's
// fleet path share this function, so a distributed run's report is
// byte-identical to a standalone one's.
func AnalyzeOutcomes(spec Spec, outcomes []sim.Outcome, width int, lib *defects.Library, fullPlan *core.Plan,
	simulateMin func(minPlan *core.Plan) ([]sim.Outcome, error)) (*Analysis, error) {
	sets := diagnose.Collect(outcomes)
	switch spec.JobType() {
	case TypeDiagnose:
		acc, err := sets.EvaluateAccuracy(lib)
		if err != nil {
			return nil, err
		}
		var cands []diagnose.Candidate
		if len(spec.Signature) > 0 {
			cands, err = sets.LocalizeNames(spec.Signature)
			if err != nil {
				return nil, err
			}
		}
		return &Analysis{Diagnosis: report.NewDiagnosisJSON(spec.Bus, sets, &acc, spec.Signature, cands)}, nil

	case TypeRank:
		return &Analysis{Rank: report.NewRankJSON(spec.Bus, width, diagnose.RankWires(sets, width, lib))}, nil

	case TypeMinimize:
		cover := diagnose.GreedyCover(sets)
		// Verify empirically and repair: detections recorded from the full
		// program can be context-dependent (incidental transitions,
		// collateral corruption), so the loop re-simulates the minimized
		// program and augments the test set until the per-defect detection
		// vector is byte-identical to the full campaign's.
		var minPlan *core.Plan
		rep, err := diagnose.RepairCover(sets, cover, outcomes, 0,
			func(filter func(maf.Fault) bool) ([]sim.Outcome, error) {
				p, err := minimizedPlan(spec, filter)
				if err != nil {
					return nil, err
				}
				minPlan = p
				return simulateMin(p)
			})
		if err != nil {
			return nil, err
		}
		mj := report.NewMinimizeJSON(spec.Bus, cover, &rep.Verification)
		for _, f := range rep.Added {
			mj.Augmented = append(mj.Augmented, f.String())
		}
		mj.VerifyRounds = rep.Rounds
		mj.FullProgramTests = fullPlan.TotalApplied()
		mj.MinProgramTests = minPlan.TotalApplied()
		return &Analysis{Minimize: mj}, nil
	}
	return nil, fmt.Errorf("campaign: no analysis for job type %q", spec.JobType())
}

// minimizedPlan regenerates the spec's self-test plan restricted to the
// tests the filter accepts.
func minimizedPlan(spec Spec, filter func(maf.Fault) bool) (*core.Plan, error) {
	tgt, err := spec.backend()
	if err != nil {
		return nil, err
	}
	g := genSpec(spec)
	g.Filter = filter
	return tgt.Generate(g)
}

// verifyCampaign re-simulates the spec's defect library under a minimized
// plan, sharing the manager's runner cache, worker pool and engine choice
// with the base campaign.
func (m *Manager) verifyCampaign(ctx context.Context, spec Spec, minPlan *core.Plan, env *execEnv) (*sim.CampaignResult, error) {
	hash, err := PlanHash(minPlan)
	if err != nil {
		return nil, err
	}
	runner, _, err := m.runnerFor(env.tgt, minPlan, hash, env.models, spec.CthFactor)
	if err != nil {
		return nil, err
	}
	opts := sim.CampaignOpts{
		Workers: env.workers,
		Slots:   m.slots,
		Engine:  spec.engine(),
	}
	if m.obs.Enabled() {
		opts.Observe = m.observeTier(spec.engine())
	}
	vctx, span := obs.StartSpan(ctx, "job.verify",
		obs.Label{Key: "defects", Value: fmt.Sprint(len(env.lib.Defects))})
	res, err := runner.CampaignCtx(vctx, spec.busID(), env.lib, opts)
	span.End()
	return res, err
}

// observeTier maps a completed defect run to its engine tier's latency
// histogram: replay (settled by the batched sweep, no CPU execution),
// execute (forced full execution), or fallback (sweep divergence resolved by
// resumed execution).
func (m *Manager) observeTier(engine sim.Engine) func(out sim.Outcome, d time.Duration) {
	return func(out sim.Outcome, d time.Duration) {
		tier := "fallback"
		switch {
		case out.Replayed:
			tier = "replay"
		case engine == sim.Execute:
			tier = "execute"
		}
		m.simLatency[tier].Observe(d.Seconds())
	}
}

// RunShard executes the defect-library index range [start, end) of the
// spec's campaign synchronously and returns the per-defect outcomes in range
// order. It shares the manager's golden-runner and defect-library caches and
// its bounded worker pool with regular jobs, so a node serving as a fleet
// worker keeps one set of caches and one concurrency bound for both roles.
// Outcomes are pure functions of (plan, bus parameters, defect), so shards
// computed on different nodes merge into exactly the single-node result (see
// sim.MergeOutcomes).
func (m *Manager) RunShard(ctx context.Context, spec Spec, start, end int) ([]sim.Outcome, sim.EngineStats, error) {
	if err := spec.validate(); err != nil {
		return nil, sim.EngineStats{}, err
	}
	spec = spec.normalized()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, sim.EngineStats{}, errors.New("campaign: manager is draining; not accepting shards")
	}
	m.wg.Add(1)
	m.mu.Unlock()
	defer m.wg.Done()

	tgt, err := spec.backend()
	if err != nil {
		return nil, sim.EngineStats{}, err
	}
	models, err := tgt.BusModels(spec.CthFactor)
	if err != nil {
		return nil, sim.EngineStats{}, err
	}
	plan, hash, planHit, err := m.plans.Resolve(spec)
	if err != nil {
		return nil, sim.EngineStats{}, err
	}
	runner, _, err := m.runnerFor(tgt, plan, hash, models, spec.CthFactor)
	if err != nil {
		return nil, sim.EngineStats{}, err
	}
	lib, _, err := m.libraryFor(spec, models[spec.busID()])
	if err != nil {
		return nil, sim.EngineStats{}, err
	}
	if start < 0 || end > len(lib.Defects) || start >= end {
		return nil, sim.EngineStats{}, fmt.Errorf("campaign: shard [%d, %d) out of range for %d defects",
			start, end, len(lib.Defects))
	}
	// A shallow sub-library: defect IDs are carried by the defects
	// themselves, so outcomes keep their library-wide identity.
	sub := &defects.Library{
		Nominal:    lib.Nominal,
		Thresholds: lib.Thresholds,
		Sigma:      lib.Sigma,
		Seed:       lib.Seed,
		Defects:    lib.Defects[start:end],
	}
	opts := sim.CampaignOpts{
		Workers: cap(m.slots),
		Slots:   m.slots,
		Engine:  spec.engine(),
	}
	if m.obs.Enabled() {
		opts.Observe = m.observeTier(spec.engine())
	}
	sctx, span := obs.StartSpan(ctx, "shard.execute",
		obs.Label{Key: "start", Value: fmt.Sprint(start)},
		obs.Label{Key: "end", Value: fmt.Sprint(end)},
		obs.Label{Key: "bus", Value: spec.Bus},
		obs.Label{Key: "plan_cached", Value: fmt.Sprint(planHit)})
	res, err := runner.CampaignCtx(sctx, spec.busID(), sub, opts)
	span.End()
	if err != nil {
		return nil, sim.EngineStats{}, err
	}
	m.shardsServed.Inc()
	m.defectsSimulated.Add(int64(end - start))
	return res.Outcomes, runner.Stats(), nil
}
