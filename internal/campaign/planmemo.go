package campaign

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/target"
)

// maxPlanMemoEntries caps one node's plan memo. Generation configs arrive
// over HTTP (max_sessions is any non-negative integer), so the entry count
// must not grow with what clients send; the configs a node serves in
// practice number a handful per target. Past the cap a plan is resolved
// without being cached.
const maxPlanMemoEntries = 32

// planKey is a generated plan's identity: the target and every field of the
// generation config genSpec builds, except the fault filter, which only
// minimizedPlan sets and which is never memoized.
type planKey struct {
	target      string
	compaction  bool
	maxSessions int
	onlyChannel string
}

func planKeyOf(spec Spec) planKey {
	g := genSpec(spec)
	return planKey{target: spec.TargetName(), compaction: g.Compaction,
		maxSessions: g.MaxSessions, onlyChannel: g.OnlyChannel}
}

// hashedPlanVal is one memoized generation: the plan and its PlanHash.
type hashedPlanVal struct {
	plan *core.Plan
	hash string
}

// PlanMemo memoizes a node's generated self-test plans with their content
// hashes. Generation is a pure function of (target, generation config), so
// a memoized plan is exactly the plan a fresh generation returns; the memo
// only stops one node from repeating that work for every job and shard of a
// campaign. Concurrent callers of one key wait on a single generation. Each
// Manager and each fleet Coordinator owns one; there is no process-wide
// memo, so a fresh node always starts cold.
//
// Inline plan documents are parsed per call and never memoized. Memoized
// plans are shared and must be treated as read-only, as runners already
// treat them.
type PlanMemo struct {
	entries      flightCache[planKey, hashedPlanVal]
	hits, misses atomic.Int64
}

// NewPlanMemo returns an empty memo.
func NewPlanMemo() *PlanMemo {
	return &PlanMemo{entries: flightCache[planKey, hashedPlanVal]{limit: maxPlanMemoEntries}}
}

// Resolve returns the spec's plan (inline document or generated from the
// spec's generation config, as SpecPlan) with its PlanHash, and whether the
// memo served it without generating.
func (pm *PlanMemo) Resolve(spec Spec) (*core.Plan, string, bool, error) {
	if len(spec.Plan) > 0 {
		plan, hash, err := hashedPlan(spec)
		return plan, hash, false, err
	}
	v, hit, err := pm.entries.get(planKeyOf(spec), func() (hashedPlanVal, error) {
		plan, hash, err := hashedPlan(spec)
		return hashedPlanVal{plan, hash}, err
	})
	if hit {
		pm.hits.Add(1)
	} else {
		pm.misses.Add(1)
	}
	return v.plan, v.hash, hit, err
}

// Hash resolves the spec's plan hash through the memo (see Resolve).
func (pm *PlanMemo) Hash(spec Spec) (string, error) {
	_, hash, _, err := pm.Resolve(spec)
	return hash, err
}

// Stats returns the memo's lookup counts: hits were served a memoized (or
// in-flight) generation, misses generated a plan. Inline plans count as
// neither.
func (pm *PlanMemo) Stats() (hits, misses int64) { return pm.hits.Load(), pm.misses.Load() }

// hashedPlan resolves the spec's plan without the memo and hashes it.
func hashedPlan(spec Spec) (*core.Plan, string, error) {
	plan, err := planFor(spec)
	if err != nil {
		return nil, "", err
	}
	hash, err := PlanHash(plan)
	if err != nil {
		return nil, "", err
	}
	return plan, hash, nil
}

// genSpec is the generation config a spec selects. planFor, minimizedPlan
// and the plan memo's key all derive from it, so the key cannot drift from
// what is generated.
func genSpec(spec Spec) target.GenSpec {
	g := target.GenSpec{Compaction: spec.Compaction, MaxSessions: spec.MaxSessions}
	if spec.TargetOnly {
		g.OnlyChannel = spec.Bus
	}
	return g
}
