package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"slimfast/internal/data"
	"slimfast/internal/query"
	"slimfast/internal/stream"
)

// ack is one acknowledged observe request: which body it carried and
// the server's cumulative claim count after applying it.
type ack struct {
	phase uint64
	i     int64
	count int64
}

// bodyClaims is how many claims body (phase, i) carries.
func bodyClaims(phase uint64, i int64) int64 {
	if phase == phasePreload {
		return min(preloadBody, numObjects-i*preloadBody)
	}
	return claimsPerRequest
}

// replayResult is what a replay learned besides the engine itself.
type replayResult struct {
	eng         *stream.Engine
	wall        time.Duration // whole replay
	loadClaims  int64         // claims outside the preload
	allocsClaim float64       // heap allocations per non-preload claim
}

// newRefEngine builds the in-process engine a serving workload is
// checked against: 2 shards and 2 workers like the node (a 2-member
// cluster is one 2-shard engine), with the given epoch length (0 = the
// engine default the node runs with).
func newRefEngine(epochLen int) (*stream.Engine, error) {
	opts := stream.DefaultEngineOptions()
	opts.Shards = 2
	opts.Workers = 2
	opts.EpochLength = epochLen
	return stream.NewEngine(opts)
}

// orderAcks sorts acknowledgements into the order the server applied
// them and checks that the cumulative counts account for every claim,
// so a lost or doubled request cannot slip past the byte comparison.
func orderAcks(acks []ack) error {
	sort.Slice(acks, func(a, b int) bool { return acks[a].count < acks[b].count })
	var prev int64
	for _, a := range acks {
		if a.count-prev != bodyClaims(a.phase, a.i) {
			return fmt.Errorf("acknowledged count jumps %d→%d around body %d/%d of %d claims", prev, a.count, a.phase, a.i, bodyClaims(a.phase, a.i))
		}
		prev = a.count
	}
	return nil
}

// replay feeds the ordered acknowledged bodies into a fresh reference
// engine, chunked into ObserveBatch calls exactly as the server chunks
// a request body. With a tracer, every timed body is a span whose
// children are its parse (the body rendered as CSV and read back
// through data.StreamObservationsCSV, the server's CSV path) and its
// ObserveBatch calls.
func replay(ks *keySpace, acks []ack, epochLen int, tr *tracer) (replayResult, error) {
	eng, err := newRefEngine(epochLen)
	if err != nil {
		return replayResult{}, err
	}
	g := ks.newGen()
	buf := make([]stream.Triple, 0, preloadBody)
	var body bytes.Buffer
	var ms runtime.MemStats
	var mallocs uint64
	loadStarted := false
	res := replayResult{eng: eng}
	began := time.Now()
	for _, a := range acks {
		if a.phase != phasePreload && !loadStarted {
			loadStarted = true
			runtime.ReadMemStats(&ms)
			mallocs = ms.Mallocs
		}
		root := tr.begin("replay.request", -1, a.i)
		buf = g.body(buf[:0], a.phase, a.i)
		if tr != nil && a.phase != phasePreload {
			sp := tr.begin("bench.encode_csv", root, a.i)
			encodeCSV(&body, buf)
			tr.finish(sp)
			buf = buf[:0]
			sp = tr.begin("data.parse_csv", root, a.i)
			err := data.StreamObservationsCSV(bytes.NewReader(body.Bytes()), func(s, o, v string) error {
				buf = append(buf, stream.Triple{Source: s, Object: o, Value: v})
				return nil
			})
			tr.finish(sp)
			if err != nil {
				return res, err
			}
		}
		name := "stream.observe_batch"
		if a.phase == phasePreload {
			name = "stream.observe_batch.preload"
		} else {
			res.loadClaims += int64(len(buf))
		}
		for lo := 0; lo < len(buf); lo += serverBatch {
			sp := tr.begin(name, root, a.i)
			eng.ObserveBatch(buf[lo:min(lo+serverBatch, len(buf))])
			tr.finish(sp)
		}
		tr.finish(root)
	}
	if loadStarted {
		runtime.ReadMemStats(&ms)
		res.allocsClaim = ratio(float64(ms.Mallocs-mallocs), float64(res.loadClaims))
	}
	res.wall = time.Since(began)
	return res, nil
}

// estimatesCSV renders the engine the way a node's plain GET
// /v1/estimates does: object,value,confidence with 4 decimals,
// shard-major.
func estimatesCSV(eng *stream.Engine) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	cw.Write([]string{"object", "value", "confidence"})
	for est := range eng.EstimatesSeq() {
		cw.Write([]string{est.Object, est.Value, strconv.FormatFloat(est.Confidence, 'f', 4, 64)})
	}
	cw.Flush()
	return buf.Bytes()
}

// sourcesCSV renders the engine the way plain GET /v1/sources does.
func sourcesCSV(eng *stream.Engine) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	cw.Write([]string{"source", "accuracy"})
	for _, s := range eng.Sources() {
		cw.Write([]string{s, strconv.FormatFloat(eng.SourceAccuracy(s), 'f', 4, 64)})
	}
	cw.Flush()
	return buf.Bytes()
}

// sourcesRelation is the source table the node's /v1/sources queries.
func sourcesRelation(eng *stream.Engine) *query.Relation {
	rel := &query.Relation{Cols: []query.Column{
		{Name: "source", Kind: query.KindString},
		{Name: "accuracy", Kind: query.KindFloat},
	}}
	for _, s := range eng.Sources() {
		rel.Rows = append(rel.Rows, []query.Val{
			{Kind: query.KindString, Str: s},
			{Kind: query.KindFloat, Num: eng.SourceAccuracy(s)},
		})
	}
	return rel
}

// traceQueries runs the read mix in process against eng, with a span
// around each query.Parse+Execute (per kind) and each query.Write.
// It returns the mean rows per query.
func traceQueries(eng *stream.Engine, g *gen, tr *tracer, n int64) (float64, error) {
	rows := 0
	var out bytes.Buffer
	for i := int64(0); i < n; i++ {
		kind, _, vals := g.queryPath(i)
		var rel *query.Relation
		if kind == "sources" {
			rel = sourcesRelation(eng)
		}
		sp := tr.begin("query.exec."+kind, -1, i)
		var res *query.Result
		var err error
		if rel != nil {
			var q *query.Query
			if q, err = query.Parse(vals, rel.Cols); err == nil {
				res, err = query.ExecuteRelation(rel, q)
			}
		} else {
			var q *query.Query
			if q, err = query.Parse(vals, query.EstimateColumns()); err == nil {
				res, err = query.Execute(eng, q)
			}
		}
		tr.finish(sp)
		if err != nil {
			return 0, fmt.Errorf("query %s: %w", kind, err)
		}
		out.Reset()
		sp = tr.begin("query.write", -1, i)
		err = query.Write(&out, res, "csv")
		tr.finish(sp)
		if err != nil {
			return 0, err
		}
		rows += bytes.Count(out.Bytes(), []byte("\n")) - 1 // minus the header
	}
	return ratio(float64(rows), float64(n)), nil
}

// traceEstimatesScan drains Engine.EstimatesSeq under a span, n times.
func traceEstimatesScan(eng *stream.Engine, tr *tracer, n int) {
	for k := 0; k < n; k++ {
		sp := tr.begin("stream.estimates_scan", -1, int64(k))
		for range eng.EstimatesSeq() {
		}
		tr.finish(sp)
	}
}
