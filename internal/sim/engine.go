package sim

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/crosstalk"
)

// Engine selects a Runner's defect-simulation strategy.
//
// Both engines are exact: campaigns are byte-identical under either. The
// batched engine rests on a determinism argument: the bus traffic a program
// drives is a function of the values the initiator and responder have
// received so far, so as long as every transaction of a defective run
// latches exactly the golden values, the whole run is bit-identical to the
// golden run and the defect is provably undetected. One sweep over each
// session's golden transaction trace therefore settles every clean defect
// by channel arithmetic alone — no CPU, no RAM — and only divergent
// (defect, session) pairs resume full execution from the golden snapshot at
// the first diverging transaction, so fault masking, crashes and hangs are
// modelled exactly as the paper's Fig. 9 flow requires.
type Engine int

const (
	// Batch is the default engine: one batched walk over each session's
	// golden trace evaluates every library defect per transition
	// (structure-of-arrays over the perturbed coupling matrices, bitset
	// survivor mask), clearing the clean majority in a single sweep and
	// handing only the divergent (defect, session) pairs — with their
	// recorded first-divergence indexes — to the snapshot-resume execution
	// tier. A single-defect run is a library of one.
	Batch Engine = iota
	// Execute performs the complete execution of every session program for
	// every defect — the paper's Fig. 9 flow verbatim, kept as the
	// reference oracle.
	Execute
)

// engineNames is the one list of engine spellings: every name ParseEngine
// accepts, in the order flag help and errors print them. "auto" is the
// historical default spelling, kept valid so existing specs still parse.
var engineNames = []struct {
	name string
	eng  Engine
}{
	{"auto", Batch},
	{"batch", Batch},
	{"execute", Execute},
}

// EngineChoices renders the accepted engine spellings for flag help and
// errors: "auto, batch, or execute".
func EngineChoices() string {
	names := make([]string, len(engineNames))
	for i, n := range engineNames {
		names[i] = n.name
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + ", or " + names[last]
}

// String returns the engine's canonical flag spelling.
func (e Engine) String() string {
	switch e {
	case Batch:
		return "batch"
	case Execute:
		return "execute"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine parses an engine name. The empty string selects Batch.
func ParseEngine(s string) (Engine, error) {
	if s == "" {
		return Batch, nil
	}
	for _, n := range engineNames {
		if n.name == s {
			return n.eng, nil
		}
	}
	return Batch, fmt.Errorf("sim: unknown engine %q (want %s)", s, EngineChoices())
}

// EngineStats are a Runner's cumulative engine counters across all defect
// runs (atomic snapshot; the runner may be serving concurrent campaigns).
type EngineStats struct {
	// ReplayHits counts defect runs resolved as undetected by the trace
	// sweep alone — no execution at all.
	ReplayHits int64 `json:"replay_hits"`
	// Fallbacks counts batched runs whose trace diverged and fell back to
	// (resumed) execution.
	Fallbacks int64 `json:"fallbacks"`
	// Executes counts defect runs performed entirely by the Execute tier
	// because the caller asked for it.
	Executes int64 `json:"executes"`
	// DegradedExecutes counts defect runs that requested the batched engine
	// but ran as full Execute because the golden traffic itself suffered
	// crosstalk events (replayOK is false), voiding the sweep's
	// precondition. Kept distinct from Executes so screening-stats
	// consumers see the degradation instead of a silent engine swap;
	// omitted from JSON when zero so existing report and metrics bytes are
	// unchanged on healthy runs.
	DegradedExecutes int64 `json:"degraded_executes,omitempty"`
	// BatchScreened counts defects the batched sweep cleared as undetected
	// in O(1) — no channel construction, no execution. Always also counted
	// under ReplayHits, so tier sums stay engine-stable.
	BatchScreened int64 `json:"batch_screened,omitempty"`
	// BatchSweeps counts session-trace sweeps the batched screening pass
	// performed (one per (session, campaign) pair, regardless of library
	// size — the point of inverting the loop).
	BatchSweeps int64 `json:"batch_sweeps,omitempty"`
	// MemoHits and MemoMisses count channel-transmit memo lookups across
	// all memoized channels the runner used (the per-defect channels plus
	// the target core's nominal channels).
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
	// MemoUnsupported counts defective channels whose width exceeds the
	// transmit memo's 64-wire ceiling, so they ran memo-off.
	MemoUnsupported int64 `json:"memo_unsupported,omitempty"`
}

// Stats snapshots the runner's engine counters. Memo counters combine the
// per-defect channels (harvested by the runner) with the target core's
// nominal-channel totals.
func (r *Runner) Stats() EngineStats {
	coreHits, coreMisses := r.core.MemoStats()
	return EngineStats{
		ReplayHits:       r.replayHits.Load(),
		Fallbacks:        r.fallbacks.Load(),
		Executes:         r.executes.Load(),
		DegradedExecutes: r.degradedExecutes.Load(),
		BatchScreened:    r.batchScreened.Load(),
		BatchSweeps:      r.batchSweeps.Load(),
		MemoHits:         r.memoHits.Load() + int64(coreHits),
		MemoMisses:       r.memoMisses.Load() + int64(coreMisses),
		MemoUnsupported:  r.memoUnsupported.Load(),
	}
}

// checkBus rejects a channel the runner does not model. Every engine
// indexes r.models (and the traces and core state keyed alongside it), so
// an out-of-range bus must fail identically whether the run sweeps,
// executes, or degrades.
func (r *Runner) checkBus(bus core.BusID) error {
	if int(bus) < 0 || int(bus) >= len(r.models) {
		return fmt.Errorf("sim: %s has no channel %d", r.tgt.Name(), bus)
	}
	return nil
}

// RunDefectEngine simulates one defective parameter set on the given channel
// (the other channels stay nominal) across every session program, using the
// selected engine; both produce identical Outcomes. Batch runs the
// single defect as a library of one. When the golden runs themselves
// suffered crosstalk events — possible under aggressive threshold factors —
// the sweep's precondition (golden traffic is error-free) does not hold,
// and Batch degrades to the exact Execute tier.
func (r *Runner) RunDefectEngine(bus core.BusID, defective *crosstalk.Params, eng Engine) (Outcome, error) {
	if err := r.checkBus(bus); err != nil {
		return Outcome{}, err
	}
	if eng == Execute {
		r.executes.Add(1)
		return r.runDefectExecute(bus, defective)
	}
	if !r.replayOK {
		// The run is exact but its engine request was not honoured, so it
		// is accounted separately from deliberate Execute runs.
		r.degradedExecutes.Add(1)
		return r.runDefectExecute(bus, defective)
	}
	plan, err := r.batchScreen(context.Background(), bus, []*crosstalk.Params{defective})
	if err != nil {
		return Outcome{}, err
	}
	return r.runDefectBatched(bus, defective, plan.first[0])
}
