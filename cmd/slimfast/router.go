// The `slimfast router` subcommand: the cluster coordinator that
// scales the streaming engine across machines. It partitions objects
// over N `slimfast stream -listen -external-epochs` nodes with the
// engine's own shard hash, fans ingest out through the retrying
// resilience client, and drives cluster-wide epoch barriers and
// refines over the nodes' /v1/epoch endpoints (see internal/cluster
// for the protocol and its invariants).
//
// The router serves the same HTTP surface a node does (surface.go),
// over cluster.Router, so clients cannot tell a cluster from one big
// engine: the merged /v1/estimates and /v1/sources bytes are
// bit-identical to a single-node run over the same claim stream, and
// /v1/observe sheds with 429 at the node's default admission budgets.
// A member failure answers 503 + Retry-After; health and readiness
// report per partition; /v1/features answers 409, since members run
// without the online learner.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"slimfast/internal/cluster"
	"slimfast/internal/obs"
	"slimfast/internal/query"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// runRouter implements `slimfast router`.
func runRouter(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slimfast router", flag.ContinueOnError)
	nodesFlag := fs.String("nodes", "", "comma-separated member base URLs in partition order (e.g. http://10.0.0.1:8080,http://10.0.0.2:8080); members must run `stream -listen -external-epochs`")
	listen := fs.String("listen", "", "serve the cluster HTTP API on this address (e.g. :8080)")
	batch := fs.Int("batch", 1024, "claims per fan-out chunk; must match across router restarts (barriers land on chunk boundaries)")
	epoch := fs.Int("epoch", 1024, "claims per cluster-wide accuracy epoch")
	decay := fs.Float64("decay", 1, "per-observation evidence decay in (0,1]; must match the members' -decay")
	ckptEpochs := fs.Int("checkpoint-epochs", 1, "checkpoint the whole cluster every N barriers (0 = only on demand and at shutdown)")
	manifest := fs.String("manifest", "", "router manifest path: cluster-cumulative state, written atomically at checkpoints and shutdown, restored at boot")
	attempts := fs.Int("attempts", 5, "delivery attempts per node request before the operation fails")
	timeout := fs.Duration("timeout", 30*time.Second, "per-attempt node request timeout")
	seed := fs.Int64("seed", 1, "backoff jitter seed")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty = off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validLogFormat(*logFormat); err != nil {
		return err
	}
	if *nodesFlag == "" {
		return fmt.Errorf("router: -nodes is required")
	}
	if *listen == "" {
		return fmt.Errorf("router: -listen is required")
	}
	var nodes []string
	for _, n := range strings.Split(*nodesFlag, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	reg := obs.NewRegistry()
	opts := stream.DefaultOptions()
	opts.Decay = *decay
	rt, err := cluster.New(cluster.Config{
		Nodes:            nodes,
		Batch:            *batch,
		EpochLength:      *epoch,
		Opts:             opts,
		CheckpointEpochs: *ckptEpochs,
		ManifestPath:     *manifest,
		HTTP:             &http.Client{},
		Retry: resilience.ClientConfig{
			MaxAttempts:   *attempts,
			PerTryTimeout: *timeout,
			Seed:          *seed,
		},
		Log:     stdout,
		Metrics: cluster.NewMetrics(reg),
	})
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		if _, err := startPprof(*pprofAddr, stdout); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "# routing %d partitions\n", len(rt.Nodes()))
	return serve(newRouterServer(rt, stdout, reg, *logFormat).handler(), *listen, stdout, func() error {
		if err := rt.WriteManifest(); err != nil {
			return err
		}
		st := rt.Stats()
		fmt.Fprintf(stdout, "# shutdown: %d claims routed, %d barriers\n", st.Claims, st.Barriers)
		return nil
	})
}

// routerBackend serves a cluster.Router through the shared surface.
type routerBackend struct {
	*surface
	rt *cluster.Router
}

// newRouterServer builds the router's HTTP layer with the node's
// default admission budgets and no request timeout; a nil registry
// gets a fresh one, so tests and callers without router metrics still
// serve /v1/metrics with the HTTP families.
func newRouterServer(rt *cluster.Router, logw io.Writer, reg *obs.Registry, logFormat string) *routerBackend {
	b := &routerBackend{rt: rt}
	b.surface = newSurface(b, serveConfig{
		MaxInflightBytes: defaultMaxInflightMB << 20,
		MaxInflightReqs:  defaultMaxInflightReqs,
		Registry:         reg,
		LogFormat:        logFormat,
	}, logw, "router")
	return b
}

// unavailable maps a member failure to 503 + Retry-After: the claims
// or reads are not lost, a retry after the partition recovers
// completes them. A nil err stays nil.
func unavailable(err error) error {
	if err == nil {
		return nil
	}
	return newAPIError(http.StatusServiceUnavailable, err.Error())
}

// observe parses the whole body, then fans it out. The fan-out
// inherits the request context, so the resilience client stamps this
// request's X-Request-ID on every member delivery — one ID traces a
// claim batch from the router through every partition log.
func (b *routerBackend) observe(ctx context.Context, body []byte, contentType, seq string) (any, error) {
	var claims []stream.Triple
	err := parseClaimBody(body, contentType, func(source, object, value string) error {
		claims = append(claims, stream.Triple{Source: source, Object: object, Value: value})
		return nil
	})
	if err != nil {
		// Nothing was forwarded yet: a bad row rejects the request
		// atomically.
		return nil, newAPIError(http.StatusBadRequest, fmt.Sprintf("observe: %v", err))
	}
	res, err := b.rt.Ingest(ctx, claims, seq)
	if err != nil {
		return nil, unavailable(err)
	}
	requestLogger(ctx, b.log).LogAttrs(ctx, slog.LevelInfo, "fanned out claims",
		slog.Int("claims", len(claims)), slog.String("seq", seq))
	return res, nil
}

// estimatesCSV is the legacy concatenated scatter-gather; query pushes
// down to every member and merges with the single-engine fold, so the
// bytes match one N-shard engine.
func (b *routerBackend) estimatesCSV(ctx context.Context, w io.Writer) error {
	return unavailable(b.rt.Estimates(ctx, w))
}

func (b *routerBackend) query(ctx context.Context, q *query.Query, _ bool) (*query.Result, error) {
	res, err := b.rt.Query(ctx, q)
	if err != nil {
		return nil, unavailable(err)
	}
	return res, nil
}

func (b *routerBackend) sourceColumns() []query.Column { return query.SourceColumns(false) }

func (b *routerBackend) sourcesCSV(ctx context.Context, w io.Writer) error {
	return unavailable(b.rt.Sources(ctx, w))
}

func (b *routerBackend) sources(ctx context.Context) (*query.Relation, error) {
	rel, err := b.rt.SourceRelation(ctx)
	if err != nil {
		return nil, unavailable(err)
	}
	return rel, nil
}

func (b *routerBackend) features(context.Context, io.Writer) error {
	return newAPIError(http.StatusConflict, "features: not supported in cluster mode (members run without the online learner)")
}

func (b *routerBackend) refine(ctx context.Context, sweeps int) (any, error) {
	barriers, err := b.rt.Refine(ctx, sweeps)
	if err != nil {
		return nil, unavailable(err)
	}
	return map[string]any{"sweeps": sweeps, "barriers": barriers}, nil
}

// checkpoint checkpoints every node, then writes the router manifest.
func (b *routerBackend) checkpoint(ctx context.Context) (any, error) {
	if err := b.rt.Checkpoint(ctx); err != nil {
		return nil, err
	}
	return map[string]any{"stats": b.rt.Stats()}, nil
}

// healthz carries each member's own /healthz per partition.
func (b *routerBackend) healthz(ctx context.Context) any {
	status, nodes := b.rt.Health(ctx)
	return map[string]any{
		"status": status,
		"router": b.rt.Stats(),
		"nodes":  nodes,
	}
}

// readyz degrades per partition: 200 "ready" when every member can
// take load, 200 "degraded" naming the dark partitions while the rest
// still serve, and 503 only when no member answers.
func (b *routerBackend) readyz(ctx context.Context) (int, map[string]any) {
	status, nodes := b.rt.Ready(ctx)
	var down []int
	for _, n := range nodes {
		if !n.OK {
			down = append(down, n.Partition)
		}
	}
	body := map[string]any{"status": status, "nodes": nodes}
	if len(down) > 0 {
		body["down_partitions"] = down
	}
	if status == "unavailable" {
		body["error"] = "no cluster partition is ready; retry with backoff"
		body["code"] = "shed"
		return http.StatusServiceUnavailable, body
	}
	return http.StatusOK, body
}
