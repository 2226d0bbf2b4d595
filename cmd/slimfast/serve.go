// The node backend behind `slimfast stream -listen`: the sharded
// engine served through the shared HTTP surface (surface.go), so the
// streaming reproduction runs as a long-lived service — claims arrive
// over the wire, estimates are queried live, and the engine state
// survives restarts through generation-rotated checkpoints and the
// SIGTERM handler.
//
// Ingest, refine, checkpoint and epoch requests serialize on the
// ingest lock: for a fixed sequence of /observe bodies the engine
// state (and so the /estimates bytes) is identical run to run and
// across checkpoint/restore restarts — the property the e2e restart
// job in CI pins down. The /v1/epoch endpoints are the member half of
// cluster mode (see internal/cluster and `slimfast router`).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"time"

	"slimfast/internal/cluster"
	"slimfast/internal/obs"
	"slimfast/internal/query"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// serveConfig carries the serving-mode knobs from the flag set.
type serveConfig struct {
	Batch int

	// Store is the generation-rotated checkpoint store; nil disables
	// the /checkpoint endpoint, periodic checkpointing and the final
	// shutdown checkpoint.
	Store *stream.CheckpointStore

	// CheckpointEvery enables periodic background checkpointing at
	// this cadence (0 = only on demand and at shutdown).
	CheckpointEvery time.Duration

	// RequestTimeout bounds one request end to end: the body read
	// deadline and the wait for the ingest lock. 0 = no deadline.
	RequestTimeout time.Duration

	// Admission budgets: maximum concurrent in-flight ingest bytes and
	// requests before /observe sheds with 429. <= 0 = unbounded.
	MaxInflightBytes int64
	MaxInflightReqs  int64

	// Registry is the metrics registry GET /v1/metrics scrapes; nil
	// gets a fresh one (the HTTP families still register and serve).
	Registry *obs.Registry

	// LogFormat selects the structured-log encoding: "text" (default)
	// or "json".
	LogFormat string
}

// nodeBackend serves one engine through the shared surface.
type nodeBackend struct {
	*surface
	eng  *stream.Engine
	logw io.Writer
	// lock serializes ingest, refine, checkpoint and epoch requests —
	// the channel form of a mutex, so acquisition can honor a request
	// deadline. Queries stay lock-free (the engine is concurrent-safe);
	// the lock exists so a replayed request sequence deterministically
	// reproduces the same engine state and checkpoints land on request
	// boundaries.
	lock chan struct{}

	// Single-entry response caches for the epoch exchanges, keyed by
	// op and holding the router's last barrier tag; guarded by the
	// ingest lock. Draining is destructive, so a router retry whose
	// first response was lost must get the cached drain back instead of
	// draining (now-empty) vectors a second time.
	epochCache map[string]epochCache
}

// epochCache replays the response of an idempotent-by-tag exchange.
type epochCache struct {
	tag  string
	resp any
}

func newStreamServer(eng *stream.Engine, cfg serveConfig, logw io.Writer) *nodeBackend {
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	n := &nodeBackend{
		eng:        eng,
		logw:       logw,
		lock:       make(chan struct{}, 1),
		epochCache: map[string]epochCache{},
	}
	n.surface = newSurface(n, cfg, logw, "serve")
	return n
}

// acquireIngest takes the ingest lock, giving up when ctx expires.
func (n *nodeBackend) acquireIngest(ctx context.Context) bool {
	select {
	case n.lock <- struct{}{}:
		return true
	default:
	}
	select {
	case n.lock <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (n *nodeBackend) releaseIngest() { <-n.lock }

// observe ingests a claim body in fixed-size deterministic batches,
// exactly like the CLI ingest loop.
func (n *nodeBackend) observe(ctx context.Context, body []byte, contentType, seq string) (any, error) {
	if seq != "" && n.eng.SeqSeen(seq) {
		// Fast path for retry storms: drop the duplicate before the
		// lock. The authoritative check still happens under the lock
		// below for requests that race here.
		return n.deduped(seq), nil
	}
	if !n.acquireIngest(ctx) {
		return nil, lockTimeout("observe")
	}
	defer n.releaseIngest()
	// Authoritative dedup, now that we hold the lock: of two racing
	// deliveries of the same key, exactly one ingests. A key is marked
	// before ingest so a mid-body 400 (claims before the bad row are
	// already in) is not re-applied by a confused retry.
	if seq != "" && !n.eng.MarkSeq(seq) {
		return n.deduped(seq), nil
	}

	buf := make([]stream.Triple, 0, n.cfg.Batch)
	var ingested int64
	flush := func() {
		if len(buf) > 0 {
			n.eng.ObserveBatch(buf)
			ingested += int64(len(buf))
			buf = buf[:0]
		}
	}
	err := parseClaimBody(body, contentType, func(source, object, value string) error {
		buf = append(buf, stream.Triple{Source: source, Object: object, Value: value})
		if len(buf) == cap(buf) {
			flush()
		}
		return nil
	})
	flush()
	if err != nil {
		// Claims before the bad row are already ingested; report both.
		return nil, newAPIError(http.StatusBadRequest,
			fmt.Sprintf("observe: %v (ingested %d claims before the error)", err, ingested))
	}
	// The one info-level record per ingest request: with the request ID
	// attached by the middleware, this is what makes a router fan-out
	// followable across member logs.
	requestLogger(ctx, n.log).LogAttrs(ctx, slog.LevelInfo, "ingested claims",
		slog.Int64("claims", ingested), slog.String("seq", seq))
	return map[string]any{
		"ingested":     ingested,
		"observations": n.eng.Stats().Observations,
	}, nil
}

// deduped acknowledges an already-ingested idempotency key.
func (n *nodeBackend) deduped(seq string) any {
	n.ins.met.dedupReplays.Inc()
	return map[string]any{
		"ingested":     0,
		"deduped":      true,
		"seq":          seq,
		"observations": n.eng.Stats().Observations,
	}
}

func (n *nodeBackend) estimatesCSV(_ context.Context, w io.Writer) error {
	return writeEstimatesCSV(w, n.eng)
}

func (n *nodeBackend) query(_ context.Context, q *query.Query, partial bool) (*query.Result, error) {
	if partial {
		return query.ExecutePartial(n.eng, q)
	}
	return query.Execute(n.eng, q)
}

func (n *nodeBackend) sourceColumns() []query.Column {
	return query.SourceColumns(n.eng.OnlineLearning())
}

func (n *nodeBackend) sourcesCSV(_ context.Context, w io.Writer) error {
	return writeSourceAccuraciesCSV(w, n.eng)
}

func (n *nodeBackend) sources(context.Context) (*query.Relation, error) {
	return sourcesRelation(n.eng), nil
}

// features exposes the online learner's model — the intercept plus
// every feature's learned weight — so an operator can see what the
// discriminative layer has learned without a checkpoint dump. Engines
// without an online learner answer 409, matching how /checkpoint
// reports a missing -checkpoint path.
func (n *nodeBackend) features(_ context.Context, w io.Writer) error {
	intercept, feats, ok := n.eng.FeatureWeights()
	if !ok {
		return newAPIError(http.StatusConflict, "features: engine has no online learner (start with -features)")
	}
	return writeFeatureWeightsCSV(w, intercept, feats)
}

// refine runs the exact re-sweep (Engine.Refine) on operator demand —
// the way to tighten single-pass estimates to the batch fixed point
// without a restart. It holds the ingest lock so a replayed request
// sequence stays deterministic; with -request-timeout set, a refine
// storm sheds itself with 503s instead of piling up.
func (n *nodeBackend) refine(ctx context.Context, sweeps int) (any, error) {
	if n.eng.ExternalEpochs() {
		// A member-local refine would rebuild σ from this partition's
		// mass alone and silently fork the cluster's accuracy state.
		return nil, newAPIError(http.StatusConflict,
			"refine: this node's epochs are externally coordinated (-external-epochs); POST /refine on the router")
	}
	if !n.acquireIngest(ctx) {
		return nil, lockTimeout("refine")
	}
	defer n.releaseIngest()
	n.eng.Refine(sweeps)
	st := n.eng.Stats()
	return map[string]any{
		"sweeps":       sweeps,
		"epoch":        st.Epoch,
		"observations": st.Observations,
	}, nil
}

// checkpoint durably checkpoints the engine as a new generation and
// reports where the bytes went.
func (n *nodeBackend) checkpoint(ctx context.Context) (any, error) {
	if n.cfg.Store == nil {
		return nil, newAPIError(http.StatusConflict, "no -checkpoint path configured")
	}
	if !n.acquireIngest(ctx) {
		return nil, lockTimeout("checkpoint")
	}
	defer n.releaseIngest()
	if err := n.cfg.Store.Write(n.eng); err != nil {
		return nil, err
	}
	path := n.cfg.Store.Path()
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	fmt.Fprintf(n.logw, "# checkpoint written to %s (%d bytes)\n", path, size)
	return map[string]any{
		"path":        path,
		"bytes":       size,
		"generations": n.cfg.Store.Keep(),
	}, nil
}

// healthz reports liveness plus the engine counters.
func (n *nodeBackend) healthz(context.Context) any {
	st := n.eng.Stats()
	return map[string]any{
		"status":       "ok",
		"shards":       st.Shards,
		"sources":      st.Sources,
		"objects":      st.Objects,
		"observations": st.Observations,
		"epoch":        st.Epoch,
		"evicted":      st.EvictedObjects,
	}
}

// readyz reports admission pressure: 200 with the in-flight counters
// while the gate has headroom, 503 when saturated — the signal a load
// balancer uses to rotate a replica out before its clients see 429s.
func (n *nodeBackend) readyz(context.Context) (int, map[string]any) {
	reqs, inflight, shed := n.gate.Pressure()
	body := map[string]any{
		"inflight_requests": reqs,
		"inflight_bytes":    inflight,
		"shed_total":        shed,
	}
	if n.gate.Saturated() {
		body["status"] = "overloaded"
		// Non-2xx responses carry the uniform error envelope keys even
		// when, as here, they also carry diagnostic detail.
		body["error"] = "server saturated; retry with backoff"
		body["code"] = "shed"
		return http.StatusServiceUnavailable, body
	}
	body["status"] = "ready"
	return http.StatusOK, body
}

// epoch runs one coordination exchange under the ingest lock
// (coordination moves are request-serialized like everything that
// mutates the engine), replaying the cached response when the tag
// matches:
//
//   - drain hands the coordinator this engine's settled evidence
//     deltas since the last drain — the cluster form of the shard
//     drain an epoch refresh starts with;
//   - mass hands it one Refine sweep's exact per-source posterior mass
//     (evicted base included);
//   - apply installs the coordinator's merged accuracy table as the
//     new frozen σ-table; with "rescore" every live object is rescored
//     eagerly (the re-sweep half of a distributed Refine).
func (n *nodeBackend) epoch(ctx context.Context, op string, body []byte) (any, error) {
	var req cluster.EpochRequest
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("epoch: parsing body: %v", err)
		}
	}
	if !n.acquireIngest(ctx) {
		return nil, lockTimeout("epoch")
	}
	defer n.releaseIngest()
	if c := n.epochCache[op]; req.Tag != "" && req.Tag == c.tag {
		return c.resp, nil
	}
	var resp any
	var err error
	if op == "apply" {
		err = n.eng.ApplyAccuracies(req.Accuracies, req.Rescore)
		resp = map[string]any{"tag": req.Tag, "epoch": n.eng.Stats().Epoch, "applied": len(req.Accuracies)}
	} else {
		gather := n.eng.DrainDeltas
		if op == "mass" {
			gather = n.eng.RefineMass
		}
		var stats []stream.SourceStat
		stats, err = gather()
		resp = map[string]any{"tag": req.Tag, "sources": stats}
	}
	if errors.Is(err, stream.ErrOnlineUnsupported) {
		return nil, newAPIError(http.StatusConflict, err.Error())
	}
	if err != nil {
		return nil, err
	}
	if req.Tag != "" {
		n.epochCache[op] = epochCache{tag: req.Tag, resp: resp}
	}
	return resp, nil
}

// run serves the node on addr until SIGTERM/SIGINT, then writes a
// final checkpoint generation (when a store is configured) so the
// next `-restore` boot resumes exactly here. With CheckpointEvery set,
// the periodic checkpoint loop runs alongside and stops before the
// final write.
func (n *nodeBackend) run(addr string) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		if n.cfg.Store != nil && n.cfg.CheckpointEvery > 0 {
			n.checkpointLoop(ctx, n.cfg.CheckpointEvery)
		}
	}()
	return serve(n.handler(), addr, n.logw, func() error {
		cancel()
		<-loopDone
		if n.cfg.Store == nil {
			return nil
		}
		// No ingest lock: a drain timeout may leave a request holding
		// it, and WriteCheckpoint is safe concurrent with ingest.
		if err := n.cfg.Store.Write(n.eng); err != nil {
			return err
		}
		fmt.Fprintf(n.logw, "# shutdown checkpoint written to %s (%d observations)\n",
			n.cfg.Store.Path(), n.eng.Stats().Observations)
		return nil
	})
}

// checkpointLoop runs periodic background checkpointing: every tick
// it takes the ingest lock (so generations land on request
// boundaries), writes a generation, and on failure retries with
// exponential backoff instead of silently skipping ticks — a full
// disk gets retried until space returns or the server stops.
func (n *nodeBackend) checkpointLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	bo := resilience.NewBackoff(1)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for {
			if !n.acquireIngest(ctx) {
				return
			}
			err := n.cfg.Store.Write(n.eng)
			n.releaseIngest()
			if err == nil {
				bo.Reset()
				fmt.Fprintf(n.logw, "# periodic checkpoint written to %s\n", n.cfg.Store.Path())
				break
			}
			d := bo.Next()
			n.log.Warn("periodic checkpoint failed",
				slog.Any("error", err), slog.Duration("retry_in", d))
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		}
	}
}
