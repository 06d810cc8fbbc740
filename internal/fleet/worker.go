package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ShardRequest assigns one defect-library index range to a worker. The spec
// fully identifies the campaign (the worker regenerates plan and library
// from it, or hits its caches); Key, when present, is the shard-plan
// identity the coordinator planned against — the worker recomputes it and
// rejects a mismatch, so a node whose view of the plan or library differs
// can never contribute wrong-order outcomes to a merge.
type ShardRequest struct {
	Spec   campaign.Spec `json:"spec"`
	Key    string        `json:"key,omitempty"`
	Shards int           `json:"shards,omitempty"` // shard count the key was derived with
	Start  int           `json:"start"`
	End    int           `json:"end"`
}

// ShardResponse carries one executed shard back to the coordinator:
// per-defect outcomes in range order plus the engine attribution for this
// shard and the worker's cumulative engine/memo counters.
type ShardResponse struct {
	Start    int           `json:"start"`
	Outcomes []sim.Outcome `json:"outcomes"`
	// ReplayHits and Executed attribute this shard's defects to the replay
	// tier versus (fallback or forced) CPU execution.
	ReplayHits int `json:"replay_hits"`
	Executed   int `json:"executed"`
	// Stats is the worker runner's cumulative engine counter snapshot.
	Stats sim.EngineStats `json:"stats"`
	// Spans are the worker-side spans of this shard's execution, joined to
	// the coordinator's trace via the X-Xtalk-Trace request header. The
	// coordinator ingests them so its collector holds the nested
	// coordinator→worker trace. Excluded from campaign reports (the merge
	// reads only Start and Outcomes), so byte-identity is unaffected.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// Worker is the HTTP face of one fleet node: it executes shard assignments
// with the node's campaign.Manager (sharing its caches and worker pool with
// locally submitted jobs).
//
//	POST /v1/fleet/shards  execute a ShardRequest, returns a ShardResponse
//	GET  /v1/fleet/ping    liveness for coordinator probes
type Worker struct {
	m   *campaign.Manager
	mux *http.ServeMux
}

// NewWorker wires the shard routes over a manager.
func NewWorker(m *campaign.Manager) *Worker {
	w := &Worker{m: m, mux: http.NewServeMux()}
	w.mux.HandleFunc("POST /v1/fleet/shards", w.shard)
	w.mux.HandleFunc("GET /v1/fleet/ping", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	return w
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

func (w *Worker) shard(rw http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	// A shard request is a spec plus a key and a range, well inside the
	// spec bound's headroom.
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, campaign.MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSONError(rw, campaign.DecodeStatus(err), fmt.Errorf("decoding shard request: %w", err))
		return
	}
	if req.Key != "" {
		// The key is derived from this node's own resolved plan; the plan
		// memo only spares regenerating it for every shard.
		key, err := specShardKey(req.Spec, req.Shards, w.m.Plans().Hash)
		if err != nil {
			writeJSONError(rw, http.StatusBadRequest, err)
			return
		}
		if key != req.Key {
			w.m.Obs().Record("shard.conflict",
				obs.Label{Key: "coordinator_key", Value: req.Key},
				obs.Label{Key: "worker_key", Value: key})
			writeJSONError(rw, http.StatusConflict,
				fmt.Errorf("fleet: shard key mismatch: coordinator %s, worker %s (plan or library differs)",
					req.Key, key))
			return
		}
	}
	ctx := r.Context()
	// Join the coordinator's trace: worker spans record into a per-request
	// collector (bounded by the request's span count, a handful) and ship
	// back in the response instead of sharing state across nodes.
	var reqTracer *obs.Tracer
	if trace, parent, ok := obs.ExtractHeader(r.Header); ok && w.m.Obs().Enabled() {
		reqTracer = obs.NewTracer(64)
		ctx = obs.WithRemoteParent(ctx, reqTracer, trace, parent)
	}
	ctx, span := obs.StartSpan(ctx, "worker.shard",
		obs.Label{Key: "start", Value: fmt.Sprint(req.Start)},
		obs.Label{Key: "end", Value: fmt.Sprint(req.End)})
	outcomes, stats, err := w.m.RunShard(ctx, req.Spec, req.Start, req.End)
	span.End()
	if err != nil {
		code := http.StatusInternalServerError
		if r.Context().Err() != nil {
			code = http.StatusServiceUnavailable
		}
		writeJSONError(rw, code, err)
		return
	}
	resp := ShardResponse{Start: req.Start, Outcomes: outcomes, Stats: stats}
	if reqTracer != nil {
		resp.Spans = reqTracer.Spans()
	}
	for _, out := range outcomes {
		if out.Replayed {
			resp.ReplayHits++
		} else {
			resp.Executed++
		}
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(resp)
}

func writeJSONError(rw http.ResponseWriter, code int, err error) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(map[string]string{"error": err.Error()})
}
