// The router half of the relational query surface: push the query to
// every member (only the owning member when an object= conjunct pins
// it), merge the partial results with the exact fold a single N-shard
// engine uses. Row queries forward the query verbatim with the
// projection widened (the object key first, then the requested and
// order columns), gather each member's NDJSON rows, and re-run the
// order/limit/projection over the concatenation — the relation
// comparator ties break on the object key, so the merged rows are
// byte-identical to one engine whose shards are the members. Group
// queries gather unfinalized partials (partial=1) and fold them in
// node order, the same accumulation tree the engine's shard-major fold
// builds.
package cluster

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"maps"
	"net/url"
	"slices"
	"strconv"

	"slimfast/internal/query"
)

// estimateDefaultProj mirrors the engine relation's default projection.
var estimateDefaultProj = []string{"object", "value", "confidence"}

// memberColumns is the projection the router asks members for: the
// object key first (the merge's tie-breaker), then the query's
// projection and order columns in stable order.
func memberColumns(q *query.Query) (member []string, final []string) {
	final = q.Cols
	if len(final) == 0 {
		final = estimateDefaultProj
	}
	seen := map[string]bool{"object": true}
	member = []string{"object"}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			member = append(member, name)
		}
	}
	for _, c := range final {
		add(c)
	}
	for _, k := range q.Order {
		add(k.Col)
	}
	return member, final
}

// estimateSchema resolves column names against the estimates relation.
func estimateSchema(names []string) ([]query.Column, error) {
	kinds := make(map[string]query.Kind)
	for _, c := range query.EstimateColumns() {
		kinds[c.Name] = c.Kind
	}
	cols := make([]query.Column, len(names))
	for i, n := range names {
		kind, ok := kinds[n]
		if !ok {
			return nil, fmt.Errorf("cluster: unknown estimate column %q", n)
		}
		cols[i] = query.Column{Name: n, Kind: kind}
	}
	return cols, nil
}

// Query scatter-gathers one relational query across the members and
// merges the results so they match a single N-shard engine bit for
// bit. Like Estimates, it holds the router's read lock for a
// barrier-stable read.
func (r *Router) Query(ctx context.Context, q *query.Query) (*query.Result, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if q.Group != "" {
		return r.queryGroupLocked(ctx, q)
	}
	return r.queryRowsLocked(ctx, q)
}

// memberRows fetches the NDJSON rows of one forwarded query from the
// members that can hold a match — only the owner when an object=
// conjunct pins the query, every member concurrently otherwise — and
// returns them in node order.
func (r *Router) memberRows(ctx context.Context, q *query.Query, vals url.Values, cols []query.Column) ([][][]query.Val, error) {
	vals.Set("format", "json")
	path := "/v1/estimates?" + vals.Encode()
	fetch := func(j int) ([][]query.Val, error) {
		body, err := r.get(ctx, j, path, "query")
		if err != nil {
			return nil, err
		}
		rows, err := query.ReadNDJSON(bytes.NewReader(body), cols)
		if err != nil {
			return nil, fmt.Errorf("cluster: partition %d query: %w", j, err)
		}
		return rows, nil
	}
	if obj, ok := q.PointObject(); ok {
		rows, err := fetch(r.Partition(obj))
		return [][][]query.Val{rows}, err
	}
	parts := make([][][]query.Val, len(r.cfg.Nodes))
	err := r.fanOut(func(j int) error {
		var err error
		parts[j], err = fetch(j)
		return err
	})
	return parts, err
}

// queryRowsLocked runs a non-group query: members apply the
// predicates, the disagree pair, the order and the limit; the router
// re-merges under the same total order and re-applies the limit and
// final projection.
func (r *Router) queryRowsLocked(ctx context.Context, q *query.Query) (*query.Result, error) {
	member, final := memberColumns(q)
	cols, err := estimateSchema(member)
	if err != nil {
		return nil, err
	}
	parts, err := r.memberRows(ctx, q, q.Values(member), cols)
	if err != nil {
		return nil, err
	}
	rel := &query.Relation{Cols: cols}
	for _, rows := range parts {
		rel.Rows = append(rel.Rows, rows...)
	}
	merge := &query.Query{Order: q.Order, Limit: q.Limit, Cols: final}
	res, err := query.ExecuteRelation(rel, merge)
	if err != nil {
		return nil, fmt.Errorf("cluster: merging query results: %w", err)
	}
	return res, nil
}

// queryGroupLocked runs a group query: members return unfinalized
// partials, folded here in node order and finalized once.
func (r *Router) queryGroupLocked(ctx context.Context, q *query.Query) (*query.Result, error) {
	pcols, err := query.PartialColumns(q)
	if err != nil {
		return nil, err
	}
	vals := q.Values(nil)
	vals.Set("partial", "1")
	parts, err := r.memberRows(ctx, q, vals, pcols)
	if err != nil {
		return nil, err
	}
	res, err := query.MergePartials(q, parts)
	if err != nil {
		return nil, fmt.Errorf("cluster: merging group partials: %w", err)
	}
	return res, nil
}

// SourceRelation scatter-gathers every member's GET /v1/sources and
// merges the tables into one relation over query.SourceColumns(false),
// sorted by source name: the union of the member tables (every member
// holds the full pushed σ-table, but interning order differs). A
// source reported with two different accuracies is a protocol error
// (the apply push keeps them equal). Accuracies are parsed back from
// the members' four-decimal CSV text, so a query over the relation
// sees exactly the values a plain read prints.
func (r *Router) SourceRelation(ctx context.Context) (*query.Relation, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	accs := map[string]string{}
	err := r.gather(func(j int) ([]byte, error) {
		return r.get(ctx, j, "/v1/sources", "sources")
	}, func(j int, body []byte) error {
		recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			return fmt.Errorf("cluster: partition %d returned a malformed /sources table: %w", j, err)
		}
		if len(recs) == 0 || !slices.Equal(recs[0], []string{"source", "accuracy"}) {
			return fmt.Errorf("cluster: partition %d returned an unexpected /sources header (online-learner nodes cannot join a cluster)", j)
		}
		for _, rec := range recs[1:] {
			name, acc := rec[0], rec[1]
			if prev, dup := accs[name]; dup && prev != acc {
				return fmt.Errorf("cluster: source %q diverged across partitions (%s vs %s)", name, prev, acc)
			}
			accs[name] = acc
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rel := &query.Relation{Cols: query.SourceColumns(false)}
	for _, name := range slices.Sorted(maps.Keys(accs)) {
		f, err := strconv.ParseFloat(accs[name], 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: malformed accuracy %q for source %q in /sources", accs[name], name)
		}
		rel.Rows = append(rel.Rows, []query.Val{
			{Kind: query.KindString, Str: name},
			{Kind: query.KindFloat, Num: f},
		})
	}
	return rel, nil
}
