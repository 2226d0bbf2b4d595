package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slimfast/internal/cluster"
	"slimfast/internal/query"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// goldenClaims builds a deterministic workload with real disagreement:
// eight sources over 120 objects, where source s7 is a contrarian and
// every (o+s)%11 claim dissents, so accuracies move at every epoch.
func goldenClaims() []stream.Triple {
	var out []stream.Triple
	for o := 0; o < 120; o++ {
		obj := fmt.Sprintf("obj%03d", o)
		for s := 0; s < 8; s++ {
			val := fmt.Sprintf("t%d", o%7)
			if s == 7 || (o+s)%11 == 0 {
				val = fmt.Sprintf("w%d", (o+s)%5)
			}
			out = append(out, stream.Triple{Source: fmt.Sprintf("s%d", s), Object: obj, Value: val})
		}
	}
	return out
}

func ndjsonFromTriples(claims []stream.Triple) string {
	var sb strings.Builder
	for _, tr := range claims {
		fmt.Fprintf(&sb, "{\"source\":%q,\"object\":%q,\"value\":%q}\n", tr.Source, tr.Object, tr.Value)
	}
	return sb.String()
}

// newGoldenCluster starts nodes member engines behind real node
// handlers plus a router over them, mirroring the reference geometry:
// one single-shard externally-coordinated member per reference shard.
func newGoldenCluster(t *testing.T, nodes, batch, epochLen int) *routerBackend {
	t.Helper()
	urls := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		opts := stream.DefaultEngineOptions()
		opts.Shards = 1
		opts.EpochLength = stream.ExternalEpochLength
		eng, err := stream.NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(testServer(eng, "", batch).handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return newGoldenClusterOver(t, urls, batch, epochLen)
}

// newGoldenClusterOver builds a router over already-running member URLs.
func newGoldenClusterOver(t *testing.T, urls []string, batch, epochLen int) *routerBackend {
	t.Helper()
	rt, err := cluster.New(cluster.Config{
		Nodes:       urls,
		Batch:       batch,
		EpochLength: epochLen,
		Retry:       resilience.ClientConfig{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return newRouterServer(rt, io.Discard, nil, "text")
}

// TestRouterGoldenEquivalence is the tentpole's proof at the HTTP
// layer: a three-node cluster driven entirely through the router's
// public surface produces byte-identical /estimates and /sources to a
// single three-shard engine fed the same claim stream in the same
// chunks — after ingest with epoch barriers, and again after a
// cluster-wide refine.
func TestRouterGoldenEquivalence(t *testing.T) {
	const nodes, batch, epochLen = 3, 32, 64
	claims := goldenClaims()

	refOpts := stream.DefaultEngineOptions()
	refOpts.Shards = nodes
	refOpts.EpochLength = epochLen
	ref, err := stream.NewEngine(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(claims); lo += batch {
		hi := min(lo+batch, len(claims))
		ref.ObserveBatch(claims[lo:hi])
	}

	rs := newGoldenCluster(t, nodes, batch, epochLen)
	rec := doReq(t, rs.handler(), http.MethodPost, "/v1/observe?seq=golden", "application/x-ndjson", ndjsonFromTriples(claims))
	if rec.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body)
	}

	refCSV := func(emit func(w *bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := emit(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	wantEst := refCSV(func(w *bytes.Buffer) error { return writeEstimatesCSV(w, ref) })
	wantSrc := refCSV(func(w *bytes.Buffer) error { return writeSourceAccuraciesCSV(w, ref) })

	gotEst := doReq(t, rs.handler(), http.MethodGet, "/v1/estimates", "", "")
	if gotEst.Code != http.StatusOK || gotEst.Body.String() != wantEst {
		t.Fatalf("cluster /estimates diverged from the single engine\ncluster:\n%s\nreference:\n%s", gotEst.Body, wantEst)
	}
	gotSrc := doReq(t, rs.handler(), http.MethodGet, "/v1/sources", "", "")
	if gotSrc.Code != http.StatusOK || gotSrc.Body.String() != wantSrc {
		t.Fatalf("cluster /sources diverged from the single engine\ncluster:\n%s\nreference:\n%s", gotSrc.Body, wantSrc)
	}

	// The distributed refine must land on the same fixed point.
	ref.Refine(2)
	if rec := doReq(t, rs.handler(), http.MethodPost, "/v1/refine?sweeps=2", "", ""); rec.Code != http.StatusOK {
		t.Fatalf("refine: %d %s", rec.Code, rec.Body)
	}
	wantEst = refCSV(func(w *bytes.Buffer) error { return writeEstimatesCSV(w, ref) })
	wantSrc = refCSV(func(w *bytes.Buffer) error { return writeSourceAccuraciesCSV(w, ref) })
	if got := doReq(t, rs.handler(), http.MethodGet, "/v1/estimates", "", ""); got.Body.String() != wantEst {
		t.Fatalf("post-refine /estimates diverged\ncluster:\n%s\nreference:\n%s", got.Body, wantEst)
	}
	if got := doReq(t, rs.handler(), http.MethodGet, "/v1/sources", "", ""); got.Body.String() != wantSrc {
		t.Fatalf("post-refine /sources diverged\ncluster:\n%s\nreference:\n%s", got.Body, wantSrc)
	}

	// A full re-delivery of the same request must change nothing: the
	// router re-forwards every chunk (node dedup absorbs them) and the
	// cluster bytes stay put.
	if rec := doReq(t, rs.handler(), http.MethodPost, "/v1/observe?seq=golden", "application/x-ndjson", ndjsonFromTriples(claims)); rec.Code != http.StatusOK {
		t.Fatalf("re-observe: %d %s", rec.Code, rec.Body)
	}
	if got := doReq(t, rs.handler(), http.MethodGet, "/v1/estimates", "", ""); got.Body.String() != wantEst {
		t.Fatal("re-delivered request changed the cluster estimates")
	}
}

// TestRouterPartialFailureRedeliversExactlyOnce fails one keyed chunk
// on member 1 until the router's retry policy gives up, while member 0
// applies its half of the chunk. Redelivering the request under the
// same sequence key must then leave the cluster byte-identical to one
// 2-shard engine fed the claims once: member 0 dedups the half it
// already has, member 1 applies its half, and no barrier runs twice.
func TestRouterPartialFailureRedeliversExactlyOnce(t *testing.T) {
	const nodes, batch, epochLen = 2, 32, 64
	const failKey = "pf.c5.n1"
	claims := goldenClaims()
	var mu sync.Mutex
	failsLeft := 3 // newGoldenClusterOver's MaxAttempts
	engines := make([]*stream.Engine, nodes)
	urls := make([]string, nodes)
	for i := range urls {
		opts := stream.DefaultEngineOptions()
		opts.Shards = 1
		opts.EpochLength = stream.ExternalEpochLength
		eng, err := stream.NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
		member := testServer(eng, "", batch).handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(resilience.SeqHeader) == failKey {
				mu.Lock()
				fail := failsLeft > 0
				if fail {
					failsLeft--
				}
				mu.Unlock()
				if fail {
					http.Error(w, "induced failure", http.StatusInternalServerError)
					return
				}
			}
			member.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	rs := newGoldenClusterOver(t, urls, batch, epochLen)
	body := ndjsonFromTriples(claims)
	if rec := doReq(t, rs.handler(), http.MethodPost, "/v1/observe?seq=pf", "application/x-ndjson", body); rec.Code == http.StatusOK {
		t.Fatalf("first delivery succeeded although member 1 failed %s every time: %s", failKey, rec.Body)
	}
	if !engines[0].SeqSeen("pf.c5.n0") {
		t.Fatal("member 0 did not apply its half of the failed chunk")
	}
	mu.Lock()
	left := failsLeft
	mu.Unlock()
	if left != 0 {
		t.Fatalf("member 1 has %d induced failures left: the retry policy did not run out", left)
	}
	if rec := doReq(t, rs.handler(), http.MethodPost, "/v1/observe?seq=pf", "application/x-ndjson", body); rec.Code != http.StatusOK {
		t.Fatalf("redelivery: %d %s", rec.Code, rec.Body)
	}

	refOpts := stream.DefaultEngineOptions()
	refOpts.Shards = nodes
	refOpts.EpochLength = epochLen
	ref, err := stream.NewEngine(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(claims); lo += batch {
		ref.ObserveBatch(claims[lo:min(lo+batch, len(claims))])
	}
	var wantEst, wantSrc bytes.Buffer
	if err := writeEstimatesCSV(&wantEst, ref); err != nil {
		t.Fatal(err)
	}
	if err := writeSourceAccuraciesCSV(&wantSrc, ref); err != nil {
		t.Fatal(err)
	}
	if got := doReq(t, rs.handler(), http.MethodGet, "/v1/estimates", "", ""); got.Body.String() != wantEst.String() {
		t.Errorf("cluster /estimates diverged from the single engine\ncluster:\n%s\nreference:\n%s", got.Body, wantEst.String())
	}
	if got := doReq(t, rs.handler(), http.MethodGet, "/v1/sources", "", ""); got.Body.String() != wantSrc.String() {
		t.Errorf("cluster /sources diverged from the single engine\ncluster:\n%s\nreference:\n%s", got.Body, wantSrc.String())
	}
}

// TestRouterHTTPSurface covers the router's error contract: bad rows
// reject atomically, refine validates sweeps, health endpoints answer.
func TestRouterHTTPSurface(t *testing.T) {
	rs := newGoldenCluster(t, 2, 8, 16)
	h := rs.handler()

	if rec := doReq(t, h, http.MethodPost, "/v1/observe", "application/x-ndjson", `{"source":"","object":"o","value":"v"}`+"\n"); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty source accepted: %d %s", rec.Code, rec.Body)
	}
	if rec := doReq(t, h, http.MethodPost, "/v1/refine?sweeps=0", "", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("sweeps=0 accepted: %d", rec.Code)
	}
	if rec := doReq(t, h, http.MethodPost, "/v1/observe", "text/csv", "source,object,value\na,o1,v\nb,o2,v\n"); rec.Code != http.StatusOK {
		t.Fatalf("csv observe: %d %s", rec.Code, rec.Body)
	}
	if rec := doReq(t, h, http.MethodGet, "/v1/healthz", "", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}
	if rec := doReq(t, h, http.MethodGet, "/v1/readyz", "", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ready"`) {
		t.Fatalf("readyz: %d %s", rec.Code, rec.Body)
	}

	// The router inherits the node's overload contract: with its gate
	// saturated, /v1/observe sheds with 429 + Retry-After and code shed
	// before any member sees the chunk.
	opts := stream.DefaultEngineOptions()
	opts.Shards = 1
	opts.EpochLength = stream.ExternalEpochLength
	eng, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	member := testServer(eng, "", 8).handler()
	var memberHits atomic.Int64
	ms := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		memberHits.Add(1)
		member.ServeHTTP(w, r)
	}))
	t.Cleanup(ms.Close)
	shedRS := newGoldenClusterOver(t, []string{ms.URL}, 8, 16)
	release, err := shedRS.gate.Acquire(defaultMaxInflightMB << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	sh := shedRS.handler()
	rec := doReq(t, sh, http.MethodPost, "/v1/observe", "text/csv", "source,object,value\na,o1,v\n")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("observe on a saturated router = %d, want 429: %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("shed Retry-After = %q, want 1", ra)
	}
	if code := decodeEnvelope(t, rec); code != "shed" {
		t.Errorf("shed code = %q, want shed", code)
	}
	if v, _ := scrape(t, sh)["slimfast_http_shed_total"].Value("slimfast_http_shed_total", nil); v != 1 {
		t.Errorf("router shed counter = %v, want 1", v)
	}
	if n := memberHits.Load(); n != 0 {
		t.Errorf("a member saw %d requests from a shed observe", n)
	}
	if obs := eng.Stats().Observations; obs != 0 {
		t.Errorf("member ingested %d claims from a shed observe", obs)
	}
}

// TestRouterRefusesMemberRefine: a member running -external-epochs
// must 409 a direct /refine — only the router may move the cluster's
// σ-table.
func TestRouterRefusesMemberRefine(t *testing.T) {
	opts := stream.DefaultEngineOptions()
	opts.Shards = 1
	opts.EpochLength = stream.ExternalEpochLength
	eng, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := testServer(eng, "", 8).handler()
	if rec := doReq(t, h, http.MethodPost, "/v1/refine", "", ""); rec.Code != http.StatusConflict {
		t.Fatalf("member refine: %d, want 409", rec.Code)
	}
}

// TestRouterConcurrentReadsDuringIngest drives router reads from
// several goroutines — plain estimates and sources, point, group and
// top-k queries — while one client ingests, then checks the cluster
// ends byte-identical to one 2-shard engine fed the same chunks. Run
// under -race it also checks the read path shares the router's read
// lock without touching state the ingest path writes.
func TestRouterConcurrentReadsDuringIngest(t *testing.T) {
	const nodes, batch, epochLen = 2, 32, 64
	claims := goldenClaims()
	rs := newGoldenCluster(t, nodes, batch, epochLen)
	h := rs.handler()
	reads := []string{
		"/v1/estimates",
		"/v1/sources",
		"/v1/estimates?where=object=obj017",
		"/v1/estimates?group=value&agg=count,sum:confidence,max:dissent",
		"/v1/estimates?order=-contested&limit=5&format=json",
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				path := reads[i%len(reads)]
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("read %s during ingest: %d %s", path, rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	// Whole chunks per request, so the router chunks exactly as the
	// reference engine's batches below.
	const perReq = 4 * batch
	for lo := 0; lo < len(claims); lo += perReq {
		body := ndjsonFromTriples(claims[lo:min(lo+perReq, len(claims))])
		if rec := doReq(t, h, http.MethodPost, "/v1/observe", "application/x-ndjson", body); rec.Code != http.StatusOK {
			t.Fatalf("observe at %d: %d %s", lo, rec.Code, rec.Body)
		}
	}
	close(done)
	wg.Wait()

	refOpts := stream.DefaultEngineOptions()
	refOpts.Shards = nodes
	refOpts.EpochLength = epochLen
	ref, err := stream.NewEngine(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(claims); lo += batch {
		ref.ObserveBatch(claims[lo:min(lo+batch, len(claims))])
	}
	refHandler := testServer(ref, "", batch).handler()
	for _, path := range reads {
		want := doReq(t, refHandler, http.MethodGet, path, "", "")
		got := doReq(t, h, http.MethodGet, path, "", "")
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
			t.Errorf("cluster %s diverged from the 2-shard engine\ncluster (%d):\n%s\nreference:\n%s", path, got.Code, got.Body, want.Body)
		}
	}
}

// TestRouterSourcesQuotedNames: source names that CSV must quote — a
// comma, a double quote — merge across members like any other name,
// so the router's /v1/sources reads are byte-identical to one 2-shard
// engine's, plain and queried. Two names sharing the prefix before
// their comma ("a,b", "a,c") must stay two sources.
func TestRouterSourcesQuotedNames(t *testing.T) {
	const nodes, batch, epochLen = 2, 8, 16
	var claims []stream.Triple
	for o := 0; o < 24; o++ {
		for s, src := range []string{"a,b", "a,c", `q"x`, "plain"} {
			val := fmt.Sprintf("v%d", o%3)
			if (o+s)%5 == 0 {
				val = "w"
			}
			claims = append(claims, stream.Triple{Source: src, Object: fmt.Sprintf("obj%02d", o), Value: val})
		}
	}
	rs := newGoldenCluster(t, nodes, batch, epochLen)
	if rec := doReq(t, rs.handler(), http.MethodPost, "/v1/observe", "application/x-ndjson", ndjsonFromTriples(claims)); rec.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body)
	}
	refOpts := stream.DefaultEngineOptions()
	refOpts.Shards = nodes
	refOpts.EpochLength = epochLen
	ref, err := stream.NewEngine(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(claims); lo += batch {
		ref.ObserveBatch(claims[lo:min(lo+batch, len(claims))])
	}
	refHandler := testServer(ref, "", batch).handler()
	for _, path := range []string{
		"/v1/sources",
		"/v1/sources?order=-source&limit=3",
		"/v1/sources?where=" + url.QueryEscape("source=a,b"),
		"/v1/sources?where=" + url.QueryEscape(`source=q"x`) + "&cols=source&format=json",
	} {
		want := doReq(t, refHandler, http.MethodGet, path, "", "")
		got := doReq(t, rs.handler(), http.MethodGet, path, "", "")
		if want.Code != http.StatusOK || got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
			t.Errorf("cluster %s diverged from the 2-shard engine\ncluster (%d):\n%s\nreference (%d):\n%s", path, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// parseSourcesCSV rebuilds a sources CSV dump as a relation over cols
// — the oracle side of the router's sources queries, which run over
// the merged table's four-decimal accuracies.
func parseSourcesCSV(body string, cols []query.Column) (*query.Relation, error) {
	rel := &query.Relation{Cols: cols}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	for i, line := range lines {
		if i == 0 || line == "" {
			continue // header
		}
		name, accStr, ok := strings.Cut(line, ",")
		if !ok {
			return nil, fmt.Errorf("sources: malformed row %q", line)
		}
		acc, err := strconv.ParseFloat(accStr, 64)
		if err != nil {
			return nil, fmt.Errorf("sources: malformed accuracy in %q", line)
		}
		rel.Rows = append(rel.Rows, []query.Val{
			{Kind: query.KindString, Str: name},
			{Kind: query.KindFloat, Num: acc},
		})
	}
	return rel, nil
}
