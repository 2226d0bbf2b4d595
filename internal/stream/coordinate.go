// Cluster-coordination primitives: the engine-side half of the
// consistent-hash scale-out mode (internal/cluster, `slimfast
// router`). A cluster of N single-shard engines behind a router that
// partitions objects with the engine's own FNV hash is the in-process
// shard pattern lifted one level up — and these methods expose exactly
// the three shard-level moves an epoch needs, without performing the
// global fold locally:
//
//   - DrainDeltas hands the router this engine's settled evidence
//     deltas since the last drain (the shard.drain fold, by name).
//   - RefineMass hands the router one Refine sweep's exact per-source
//     posterior mass (the parts stage of Engine.Refine, by name).
//   - ApplyAccuracies installs the router's globally merged accuracy
//     table as the new frozen σ-table and bumps the epoch — the
//     σ-recompute half of refreshLocked, with the numbers computed
//     elsewhere.
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

	"slimfast/internal/mathx"
	"slimfast/internal/parallel"
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
	agree := e.mergeAgree[:0]
	total := e.mergeTotal[:0]
	obs := e.mergeObs[:0]
	// Shard order fixes the float accumulation order, as in
	// refreshLocked: the coordinator continues the same ordered
	// reduction across engines.
	for s := range e.shards {
		e.shards[s].drain(func(da, dt []float64, oc []int64) {
			for len(agree) < len(da) {
				agree = append(agree, 0)
				total = append(total, 0)
				obs = append(obs, 0)
			}
			for i := range da {
				agree[i] += da[i]
				total[i] += dt[i]
				obs[i] += oc[i]
			}
		})
	}
	e.mergeAgree, e.mergeTotal, e.mergeObs = agree, total, obs
	names := e.sourceNames()
	out := make([]SourceStat, len(agree))
	for i := range agree {
		out[i] = SourceStat{Source: names[i], Agree: agree[i], Total: total[i], Observations: obs[i]}
	}
	return out, nil
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
	type mass struct{ agree, total []float64 }
	parts := parallel.Map(e.nShards, e.opts.Workers, func(s int) mass {
		sh := &e.shards[s]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		m := mass{
			agree: make([]float64, len(sh.evictedAgree)),
			total: make([]float64, len(sh.evictedTotal)),
		}
		copy(m.agree, sh.evictedAgree)
		copy(m.total, sh.evictedTotal)
		grow := func(sid int32) {
			for len(m.agree) <= int(sid) {
				m.agree = append(m.agree, 0)
				m.total = append(m.total, 0)
			}
		}
		for ix := range sh.objs {
			obj := &sh.objs[ix]
			if !obj.live {
				continue
			}
			for i := range obj.claims {
				c := &obj.claims[i]
				p := obj.post[obj.domainIndex(c.val)]
				grow(c.src)
				m.agree[c.src] += p
				m.total[c.src]++
				c.settled = p
			}
			obj.dirty = false
		}
		sh.dirtyIx = sh.dirtyIx[:0]
		for i := range sh.deltaAgree {
			sh.deltaAgree[i] = 0
			sh.deltaTotal[i] = 0
			sh.obsCount[i] = 0
		}
		return m
	})
	n := 0
	for _, m := range parts {
		if len(m.agree) > n {
			n = len(m.agree)
		}
	}
	e.sinceEp.Store(0)
	names := e.sourceNames()
	out := make([]SourceStat, n)
	for s := 0; s < n; s++ {
		var a, t float64
		for _, m := range parts { // shard order: deterministic
			if s < len(m.agree) {
				a += m.agree[s]
				t += m.total[s]
			}
		}
		out[s] = SourceStat{Source: names[s], Agree: a, Total: t}
	}
	return out, nil
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
		id, ok := e.src.ids[a.Source]
		if !ok {
			id = len(e.src.names)
			e.src.ids[a.Source] = id
			e.src.names = append(e.src.names, a.Source)
			e.src.agree = append(e.src.agree, 0)
			e.src.total = append(e.src.total, 0)
			e.src.acc = append(e.src.acc, 0)
			e.src.sigma = append(e.src.sigma, 0)
		}
		e.src.acc[id] = a.Accuracy
		e.src.sigma[id] = mathx.Logit(a.Accuracy)
	}
	e.src.epoch++
	epoch := e.src.epoch
	e.src.mu.Unlock()
	if rescore {
		parallel.For(e.nShards, e.opts.Workers, func(s int) {
			sh := &e.shards[s]
			sh.mu.Lock()
			for ix := range sh.objs {
				obj := &sh.objs[ix]
				if !obj.live {
					continue
				}
				sh.rescore(e, obj, epoch)
				if !obj.dirty {
					obj.dirty = true
					sh.dirtyIx = append(sh.dirtyIx, ix)
				}
			}
			sh.mu.Unlock()
		})
	}
	return nil
}
