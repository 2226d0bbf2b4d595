// The one HTTP surface of the serving subcommands. A node
// (`slimfast stream -listen`, serve.go) and the cluster router
// (`slimfast router`, router.go) mount the same handler set over a
// backend: the surface owns the route table, the instrumentation and
// panic-recovery middleware, admission through the resilience gate,
// body reads, query parsing and format negotiation, result rendering,
// and the error envelope; a backend only says how claims are applied,
// where the estimates and sources relations come from, and what
// features, refine, checkpoint, healthz and readyz answer. Clients
// therefore cannot tell a cluster from one big engine, down to the
// overload contract: both shed /v1/observe with 429 + Retry-After.
//
// The routes, all under /v1 and documented in docs/API.md, are
// observe, estimates, sources, features, refine, checkpoint, healthz,
// readyz and metrics, plus the member endpoints epoch/{drain,mass,apply}
// on nodes only. Every non-2xx response carries the uniform error
// envelope {"error": ..., "code": shed|timeout|bad_request|conflict|internal}
// (the mux's own plain-text 404/405 excepted), and every 429 and 503
// carries Retry-After.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"slimfast/internal/obs"
	"slimfast/internal/query"
	"slimfast/internal/resilience"
)

// Default admission budgets: the defaults of the stream subcommand's
// -max-inflight-mb and -max-inflight-reqs flags, and the router's
// fixed budgets.
const (
	defaultMaxInflightMB   = 512
	defaultMaxInflightReqs = 256
)

// maxObserveBody caps one request body at 256 MiB: large enough for
// bulk ingest chunks, small enough that a hostile or buggy client
// cannot OOM the long-running service with a single unbounded body.
// Bigger streams just arrive as multiple requests.
const maxObserveBody = 256 << 20

// maxRefineSweeps caps an operator-requested re-sweep: each sweep is
// O(total claims), and an absurd count from a typo must not wedge the
// ingest lock for hours.
const maxRefineSweeps = 64

// backend is what differs between a node and the router behind the
// surface. Errors that decide their own status are *apiError values;
// any other error gets the handler's default status.
type backend interface {
	// observe applies one admitted, fully read claim body; seq is the
	// client's idempotency key ("" = none).
	observe(ctx context.Context, body []byte, contentType, seq string) (any, error)
	// estimatesCSV writes the plain estimates dump; query runs a
	// relational query over the estimates (partial: unfinalized group
	// aggregates for a router to fold).
	estimatesCSV(ctx context.Context, w io.Writer) error
	query(ctx context.Context, q *query.Query, partial bool) (*query.Result, error)
	// sourceColumns is the schema of the sources relation, sources
	// the relation itself, sorted by source.
	sourceColumns() []query.Column
	sources(ctx context.Context) (*query.Relation, error)
	features(ctx context.Context, w io.Writer) error
	refine(ctx context.Context, sweeps int) (any, error)
	checkpoint(ctx context.Context) (any, error)
	healthz(ctx context.Context) any
	readyz(ctx context.Context) (status int, body map[string]any)
}

// member is implemented by backends that can join a cluster: the
// member half of the router's epoch-barrier protocol, op being one of
// drain, mass or apply.
type member interface {
	epoch(ctx context.Context, op string, body []byte) (any, error)
}

// apiError is a backend failure that carries its own HTTP status and
// envelope code.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// newAPIError builds an apiError with the status's default code.
func newAPIError(status int, msg string) *apiError {
	return &apiError{status: status, code: errorCode(status), msg: msg}
}

// lockTimeout reports a request that gave up waiting for a backend's
// ingest lock: 503 + Retry-After like shedding, but with code
// "timeout" — the deadline expired, the server is not necessarily
// saturated.
func lockTimeout(op string) error {
	return &apiError{status: http.StatusServiceUnavailable, code: "timeout",
		msg: op + ": timed out waiting for the ingest lock; retry with backoff"}
}

// surface is the shared HTTP layer over one backend.
type surface struct {
	be   backend
	cfg  serveConfig
	log  *slog.Logger
	ins  *instrumentor
	gate *resilience.Gate
}

// newSurface builds the HTTP layer for be. It reads the admission
// budgets, request timeout, registry and log format from cfg; a nil
// registry gets a fresh one, so /v1/metrics always serves the HTTP
// families.
func newSurface(be backend, cfg serveConfig, logw io.Writer, component string) *surface {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	log := newComponentLogger(cfg.LogFormat, logw, component)
	return &surface{
		be:   be,
		cfg:  cfg,
		log:  log,
		ins:  newInstrumentor(cfg.Registry, log),
		gate: resilience.NewGate(cfg.MaxInflightBytes, cfg.MaxInflightReqs),
	}
}

// handler builds the route table, mounting each route once. Unmatched
// paths and wrong methods get the mux's plain-text 404/405; the whole
// mux runs behind the tracing and panic-recovery middleware.
func (s *surface) handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		_, path, _ := strings.Cut(pattern, " ")
		mux.HandleFunc(pattern, s.ins.route(path, h))
	}
	handle("POST /v1/observe", s.handleObserve)
	handle("GET /v1/estimates", s.handleEstimates)
	handle("GET /v1/sources", s.handleSources)
	handle("GET /v1/features", s.handleFeatures)
	handle("POST /v1/refine", s.handleRefine)
	handle("POST /v1/checkpoint", s.handleCheckpoint)
	handle("GET /v1/healthz", s.handleHealthz)
	handle("GET /v1/readyz", s.handleReadyz)
	handle("GET /v1/metrics", s.cfg.Registry.Handler().ServeHTTP)
	if m, ok := s.be.(member); ok {
		for _, op := range []string{"drain", "mass", "apply"} {
			handle("POST /v1/epoch/"+op, func(w http.ResponseWriter, r *http.Request) {
				s.handleEpoch(w, r, m, op)
			})
		}
	}
	return s.ins.middleware(mux)
}

// requestContext derives the deadline-bounded context for one request
// when a request timeout is configured.
func (s *surface) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// readBody reads a request body capped at maxObserveBody and answers
// a failure itself: 413 past the cap, 408 past the read deadline, 400
// otherwise.
func (s *surface) readBody(w http.ResponseWriter, r *http.Request, op string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxObserveBody))
	if err == nil {
		return body, true
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.httpError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%s: body exceeds %d bytes; split the stream into smaller requests", op, tooBig.Limit))
	case errors.Is(err, os.ErrDeadlineExceeded):
		s.httpError(w, r, http.StatusRequestTimeout,
			fmt.Sprintf("%s: body not received within %v", op, s.cfg.RequestTimeout))
	default:
		s.httpError(w, r, http.StatusBadRequest, fmt.Sprintf("%s: reading body: %v", op, err))
	}
	return nil, false
}

// handleObserve admits, reads and hands one claim body to the backend.
// Admission reserves the declared Content-Length before a byte is read
// and sheds with 429 + Retry-After when saturated — the contract the
// resilience ingest client retries against. The backend sees only a
// whole body, so a trickling client never holds an ingest lock.
func (s *surface) handleObserve(w http.ResponseWriter, r *http.Request) {
	n := r.ContentLength
	if n < 0 {
		n = 1 << 20 // chunked body: reserve a nominal slot
	}
	release, err := s.gate.Acquire(n)
	if err != nil {
		s.ins.met.shed.Inc()
		s.httpError(w, r, http.StatusTooManyRequests, "observe: server saturated; retry with backoff")
		return
	}
	defer release()

	ctx, cancel := s.requestContext(r)
	defer cancel()
	if s.cfg.RequestTimeout > 0 {
		// Cut off trickling bodies at the deadline: without this a
		// client sending one byte per minute holds its admission slot
		// forever.
		rc := http.NewResponseController(w)
		rc.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
		defer rc.SetReadDeadline(time.Time{})
	}
	body, ok := s.readBody(w, r, "observe")
	if !ok {
		return
	}
	res, err := s.be.observe(ctx, body, r.Header.Get("Content-Type"), seqKey(r))
	s.reply(w, r, res, err, http.StatusInternalServerError)
}

// parseQuery parses a relational read's query parameters against cols
// and negotiates its format, answering 400 itself on failure.
func (s *surface) parseQuery(w http.ResponseWriter, r *http.Request, op string, cols []query.Column) (*query.Query, string, bool) {
	q, err := query.Parse(r.URL.Query(), cols)
	var format string
	if err == nil {
		format, err = negotiateFormat(r)
	}
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, op+": "+err.Error())
		return nil, "", false
	}
	return q, format, true
}

// handleEstimates serves the estimates relation: bare CSV requests get
// the backend's plain dump (the bytes the e2e tests compare), anything
// else runs the relational executor. The internal partial=1 flag
// (cluster scatter) returns unfinalized group aggregates.
func (s *surface) handleEstimates(w http.ResponseWriter, r *http.Request) {
	q, format, ok := s.parseQuery(w, r, "estimates", query.EstimateColumns())
	if !ok {
		return
	}
	if q.IsPlain() && format == "csv" {
		s.render(w, r, "text/csv", s.be.estimatesCSV)
		return
	}
	res, err := s.be.query(r.Context(), q, r.URL.Query().Get("partial") != "")
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("estimates: %w", err))
		return
	}
	s.renderResult(w, r, res, format)
}

// handleSources serves the source accuracy relation with the same
// query language and content negotiation as /estimates. Every read,
// the plain dump included, runs the relational executor: a plain query
// sorts by source and projects every column.
func (s *surface) handleSources(w http.ResponseWriter, r *http.Request) {
	q, format, ok := s.parseQuery(w, r, "sources", s.be.sourceColumns())
	if !ok {
		return
	}
	rel, err := s.be.sources(r.Context())
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	res, err := query.ExecuteRelation(rel, q)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, "sources: "+err.Error())
		return
	}
	s.renderResult(w, r, res, format)
}

// handleFeatures serves the online learner's model as CSV.
func (s *surface) handleFeatures(w http.ResponseWriter, r *http.Request) {
	s.render(w, r, "text/csv", s.be.features)
}

// handleRefine validates the optional ?sweeps=N (default 2) and runs
// the backend's exact re-sweep under the request deadline.
func (s *surface) handleRefine(w http.ResponseWriter, r *http.Request) {
	sweeps := 2
	if v := r.URL.Query().Get("sweeps"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxRefineSweeps {
			s.httpError(w, r, http.StatusBadRequest,
				fmt.Sprintf("refine: sweeps must be an integer in [1,%d], got %q", maxRefineSweeps, v))
			return
		}
		sweeps = n
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, err := s.be.refine(ctx, sweeps)
	s.reply(w, r, res, err, http.StatusInternalServerError)
}

func (s *surface) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, err := s.be.checkpoint(ctx)
	s.reply(w, r, res, err, http.StatusInternalServerError)
}

// handleHealthz always answers 200 while the process is up —
// readiness (can the server take more load?) is /readyz's job.
func (s *surface) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, s.be.healthz(r.Context()))
}

func (s *surface) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, body := s.be.readyz(r.Context())
	s.writeJSON(w, r, status, body)
}

// handleEpoch runs one member exchange of the cluster epoch protocol.
func (s *surface) handleEpoch(w http.ResponseWriter, r *http.Request, m member, op string) {
	body, ok := s.readBody(w, r, "epoch")
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, err := m.epoch(ctx, op, body)
	s.reply(w, r, res, err, http.StatusBadRequest)
}

// render writes emit's output as a contentType response. It buffers
// first, so an emit failure (a router partition failing mid-gather
// included) still becomes a clean error — writing straight to the
// ResponseWriter would commit a 200 before the error surfaced.
func (s *surface) render(w http.ResponseWriter, r *http.Request, contentType string, emit func(context.Context, io.Writer) error) {
	var buf bytes.Buffer
	if err := emit(r.Context(), &buf); err != nil {
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	if _, err := w.Write(buf.Bytes()); err != nil {
		requestLogger(r.Context(), s.log).Warn("writing response failed", slog.Any("error", err))
	}
}

// renderResult renders a query result in the negotiated format.
func (s *surface) renderResult(w http.ResponseWriter, r *http.Request, res *query.Result, format string) {
	s.render(w, r, resultContentType(format), func(_ context.Context, w io.Writer) error {
		return query.Write(w, res, format)
	})
}

// reply answers a backend call: its result as 200 JSON, or its error
// through fail with status as the default.
func (s *surface) reply(w http.ResponseWriter, r *http.Request, res any, err error, status int) {
	if err != nil {
		s.fail(w, r, status, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, res)
}

func (s *surface) writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	writeJSONLog(w, requestLogger(r.Context(), s.log), code, v)
}

func (s *surface) httpError(w http.ResponseWriter, r *http.Request, code int, msg string) {
	httpErrorLog(w, requestLogger(r.Context(), s.log), code, msg)
}

// fail answers a backend error: an *apiError (wrapped or not) with its
// own status, code and message, any other error with status and the
// error's full text. Ingest-lock deadlines count into
// slimfast_http_timeouts_total.
func (s *surface) fail(w http.ResponseWriter, r *http.Request, status int, err error) {
	var ae *apiError
	if !errors.As(err, &ae) {
		s.httpError(w, r, status, err.Error())
		return
	}
	if ae.code == "timeout" {
		s.ins.met.timeouts.Inc()
	}
	httpErrorCodeLog(w, requestLogger(r.Context(), s.log), ae.status, ae.code, ae.msg)
}

// serve runs h on addr until SIGTERM/SIGINT or a fatal listener error.
// On a signal it stops accepting and drains in-flight requests; either
// way it then runs onShutdown (a node's final checkpoint, the router's
// manifest) so the next boot resumes exactly here.
func serve(h http.Handler, addr string, stdout io.Writer, onShutdown func() error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address line is machine-readable on purpose: with
	// -listen :0 it is how scripts discover the port.
	fmt.Fprintf(stdout, "# listening on %s\n", ln.Addr())
	// No ReadTimeout: large ingest bodies may legitimately take a
	// while, and -request-timeout bounds them per request when the
	// operator wants that. Header and idle timeouts still shed dead
	// connections.
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var shutdownErr error
	select {
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills
		fmt.Fprintf(stdout, "# signal received, draining connections\n")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		// A drain timeout (a client still holding a request) must not
		// skip onShutdown: the durable state is saved either way.
		shutdownErr = srv.Shutdown(shutCtx)
	case err := <-errc:
		// A fatal listener error still falls through to onShutdown: the
		// backend state is intact even when the socket is not.
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			shutdownErr = err
		}
	}
	return errors.Join(shutdownErr, onShutdown())
}
