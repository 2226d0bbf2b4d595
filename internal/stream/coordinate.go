// Cluster-coordination primitives: the engine-side half of the
// consistent-hash scale-out mode (internal/cluster, `slimfast
// router`). A cluster of N single-shard engines behind a router that
// partitions objects with the engine's own FNV hash is the in-process
// shard pattern lifted one level up: a single engine is a one-member
// cluster whose coordinator is refreshLocked. The three primitives are
// name-keyed wrappers over the very barrier steps the engine's own
// epoch refresh and Refine run, minus the global fold:
//
//   - DrainDeltas is drainLocked: the settled evidence deltas since the
//     last drain, merged in shard order.
//   - RefineMass is refineMassLocked: one Refine sweep's exact
//     per-source posterior mass, pooled in shard order.
//   - ApplyAccuracies is the install half of a barrier: the
//     coordinator's accuracy table becomes the frozen σ-table through
//     setAccuracyLocked, the epoch is bumped, and with rescore set
//     rescoreAll runs as in Refine.
//
// The router performs the cross-engine fold in fixed node order, the
// same way refreshLocked folds shards in shard order, so the float
// accumulation order — and therefore every posterior bit — matches a
// single engine whose shards are the cluster's nodes.
package stream

import (
	"errors"
	"fmt"
	"math"
)

// ExternalEpochLength is the EpochLength sentinel for engines whose
// epochs are driven externally (cluster members): local refresh would
// need this many observations between barriers to fire, and both
// DrainDeltas and RefineMass reset the counter, so it never does. The
// value fits an int32 so checkpoints stay portable.
const ExternalEpochLength = 1<<31 - 1

// ExternalEpochs reports whether this engine defers epoch refreshes to
// an external coordinator (it was built or restored with
// EpochLength >= ExternalEpochLength).
func (e *Engine) ExternalEpochs() bool { return e.epochLen >= ExternalEpochLength }

// ShardIndex routes an object name to a partition in [0, n) — the same
// FNV-1a hash the engine's own shards use, exported so the cluster
// router partitions objects across nodes exactly as one engine with n
// shards would partition them internally.
func ShardIndex(object string, n int) int { return int(fnvHash(object)) % n }

// EstimateAccuracy is the engine's smoothed empirical accuracy
// estimate — clamp((InitAccuracy·PriorStrength + agree) /
// (PriorStrength + total)) — exported so the cluster router computes
// accuracies from globally merged evidence with bit-identical math.
func (o Options) EstimateAccuracy(agree, total float64) float64 {
	return smoothedAccuracy(o, agree, total)
}

// FoldEpoch folds one epoch's merged evidence deltas into the
// cumulative per-source evidence, in place, for every source i in
// dAgree: the cumulative pair decays by decay^obs[i] when the source
// saw obs[i] > 0 observations this epoch (decay < 1 only), then takes
// the deltas, and agree is clamped at 0. Under decay the settled
// baseline shrinks while posterior drift is still measured against the
// undecayed settle marks, so a large downward drift can overshoot;
// evidence mass is never negative. Engine.refreshLocked (over shards)
// and the cluster router's barrier (over nodes) both fold through here,
// so the two stay bit-identical by construction.
func FoldEpoch(agree, total, dAgree, dTotal []float64, obs []int64, decay float64) {
	for i := range dAgree {
		if decay < 1 && obs[i] > 0 {
			d := math.Pow(decay, float64(obs[i]))
			agree[i] *= d
			total[i] *= d
		}
		agree[i] += dAgree[i]
		total[i] += dTotal[i]
		if agree[i] < 0 {
			agree[i] = 0
		}
	}
}

// SourceStat is one source's contribution in a coordination exchange,
// keyed by name because interned ids diverge across engines.
type SourceStat struct {
	Source       string  `json:"source"`
	Agree        float64 `json:"agree"`
	Total        float64 `json:"total"`
	Observations int64   `json:"observations,omitempty"`
}

// SourceAccuracy is one entry of a coordinator-pushed accuracy table.
type SourceAccuracy struct {
	Source   string  `json:"source"`
	Accuracy float64 `json:"accuracy"`
}

// ErrOnlineUnsupported gates the coordination API off engines running
// the online learner: its σ-table comes from feature weights, not the
// agreement fold, so a remote coordinator cannot reproduce it.
var ErrOnlineUnsupported = errors.New("stream: cluster coordination is not supported with the online learner")

// DrainDeltas drains every shard in shard order and returns the merged
// settled-evidence deltas since the last drain, without folding them
// into this engine's own cumulative state or touching its σ-table —
// that is the coordinator's job. The per-shard delta vectors are
// zeroed and the epoch observation counter resets, exactly like the
// drain half of an epoch refresh.
func (e *Engine) DrainDeltas() ([]SourceStat, error) {
	if e.learner != nil {
		return nil, ErrOnlineUnsupported
	}
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	e.sinceEp.Store(0)
	agree, total, obs := e.drainLocked()
	return e.sourceStats(agree, total, obs), nil
}

// RefineMass recomputes, under the current posteriors, the exact
// per-source agreement mass one Refine sweep would pool: evicted mass
// as the irreducible base plus every live claim's posterior, merged
// across shards in shard order. Settled marks move to the summed
// posteriors and the delta vectors are zeroed, exactly as in
// Engine.Refine, so later drains stay consistent with the coordinator
// state rebuilt from this mass. The caller is expected to follow with
// ApplyAccuracies(..., rescore=true) once the cluster-wide merge is
// done.
func (e *Engine) RefineMass() ([]SourceStat, error) {
	if e.learner != nil {
		return nil, ErrOnlineUnsupported
	}
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	agree, total := e.refineMassLocked()
	e.sinceEp.Store(0)
	return e.sourceStats(agree, total, nil), nil
}

// sourceStats keys per-source vectors by name; obs may be nil.
func (e *Engine) sourceStats(agree, total []float64, obs []int64) []SourceStat {
	names := e.sourceNames()
	out := make([]SourceStat, len(agree))
	for i := range agree {
		out[i] = SourceStat{Source: names[i], Agree: agree[i], Total: total[i]}
		if obs != nil {
			out[i].Observations = obs[i]
		}
	}
	return out
}

// ApplyAccuracies installs a coordinator-computed accuracy table: each
// named source's accuracy and σ = logit(accuracy) are set, unknown
// names are interned (a claim for them may arrive here later, and it
// must be scored with the global σ, exactly as it would be in a single
// engine where interning is global), and the epoch is bumped so every
// object lazily rescores on its next touch. With rescore set, every
// live object is rescored eagerly and marked dirty — the re-sweep half
// of Engine.Refine.
func (e *Engine) ApplyAccuracies(accs []SourceAccuracy, rescore bool) error {
	if e.learner != nil {
		return ErrOnlineUnsupported
	}
	for _, a := range accs {
		if a.Source == "" {
			return errors.New("stream: apply accuracies: empty source name")
		}
		if math.IsNaN(a.Accuracy) || a.Accuracy <= 0 || a.Accuracy >= 1 {
			return fmt.Errorf("stream: apply accuracies: source %q accuracy %v outside (0,1)", a.Source, a.Accuracy)
		}
	}
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	e.src.mu.Lock()
	for _, a := range accs {
		e.setAccuracyLocked(e.internSourceLocked(a.Source), a.Accuracy)
	}
	e.src.epoch++
	epoch := e.src.epoch
	e.src.mu.Unlock()
	if rescore {
		e.rescoreAll(epoch)
	}
	return nil
}
