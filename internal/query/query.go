// Package query is the relational query surface over live estimates:
// a small composable layer — filter, project, order, limit,
// group-aggregate — expressed as lazy iterators over the streaming
// engine's per-shard scans, in the streaming-relational-algebra style
// (janus-datalog) where operators compose over iterators and only the
// bounded pieces (per-shard top-k buffers, group partials) ever
// materialize.
//
// The same URL-query language drives three frontends: the
// `GET /v1/estimates` parameters, the `slimfast query` subcommand
// (live server or checkpoint file), and the cluster router's
// scatter-gather (which pushes the query to every member and merges
// with the identical comparator, so cluster results are bit-identical
// to a single N-shard engine).
//
// Grammar (all parameters optional; repeated `where` params AND
// together):
//
//	where=<col><op><operand>   op ∈ = != < <= > >= (strings: = != only)
//	order=[-]col[,[-]col...]   `-` = descending
//	limit=N
//	cols=col[,col...]          projection (default object,value,confidence)
//	group=<col>&agg=fn[,fn...] fn ∈ count | sum:col | avg:col | min:col | max:col
//	disagree=A,B               keep rows where sources A and B claim different values
//
// Every query result carries a total order — the order keys, then
// every remaining column left to right — so output bytes depend only
// on the engine's logical state, never on shard/worker scheduling.
package query

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// Kind is a column's scalar type.
type Kind uint8

const (
	KindString Kind = iota
	KindFloat
	KindInt
)

// Column names and types one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Val is one cell: a tagged scalar. Val is comparable, so it can key
// group-by maps directly.
type Val struct {
	Kind Kind
	Str  string
	Num  float64
	Int  int64
}

// String returns the CSV cell form: floats as %.4f (the wire format
// the legacy CSV endpoints use), ints and strings verbatim.
func (v Val) String() string {
	switch v.Kind {
	case KindFloat:
		return strconv.FormatFloat(v.Num, 'f', 4, 64)
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	default:
		return v.Str
	}
}

// num returns the cell as a float64 for comparisons (exact for the
// int ranges this engine produces).
func (v Val) num() float64 {
	if v.Kind == KindInt {
		return float64(v.Int)
	}
	return v.Num
}

// EstimateColumns is the schema of the estimates relation, in
// serving order. The first column is also the default sort key.
func EstimateColumns() []Column {
	return []Column{
		{"object", KindString},
		{"value", KindString},
		{"confidence", KindFloat},
		{"contested", KindFloat},
		{"changed", KindInt},
		{"sources", KindInt},
		{"dissent", KindInt},
	}
}

// SourceColumns is the schema of the sources relation: source and
// accuracy, plus the learned and empirical halves of the accuracy
// when detail is set (engines running the online learner).
func SourceColumns(detail bool) []Column {
	cols := []Column{
		{"source", KindString},
		{"accuracy", KindFloat},
	}
	if detail {
		cols = append(cols, Column{"learned", KindFloat}, Column{"empirical", KindFloat})
	}
	return cols
}

// Cond is one conjunct of the where clause.
type Cond struct {
	Col string
	Op  string  // "=", "!=", "<", "<=", ">", ">="
	Str string  // operand for string columns
	Num float64 // operand for numeric columns
	num bool    // operand parsed numerically
}

// OrderKey is one sort key.
type OrderKey struct {
	Col  string
	Desc bool
}

// Agg is one aggregate of a group query.
type Agg struct {
	Fn  string // "count", "sum", "avg", "min", "max"
	Col string // aggregated column ("" for count)
}

// Name returns the output column name of the aggregate.
func (a Agg) Name() string {
	if a.Fn == "count" {
		return "count"
	}
	return a.Fn + ":" + a.Col
}

// Query is a parsed query. The zero value (or a Parse of no
// parameters) is the plain full dump.
type Query struct {
	Where []Cond
	Order []OrderKey // empty = default (first column ascending)
	Limit int        // 0 = unlimited
	Cols  []string   // projection; empty = relation default
	Group string     // group-by column; "" = no grouping
	Aggs  []Agg      // aggregates when Group is set
	DisA  string     // disagree pair; "" = off
	DisB  string
}

// IsPlain reports whether the query is the bare full dump — the case
// the serving layer answers with its legacy shard-major fast path.
func (q *Query) IsPlain() bool {
	return len(q.Where) == 0 && len(q.Order) == 0 && q.Limit == 0 &&
		len(q.Cols) == 0 && q.Group == "" && q.DisA == ""
}

// PointObject reports the object an object-equality conjunct pins the
// query to (the first such conjunct). Only the one shard — or cluster
// member — that owns that object can hold a matching row.
func (q *Query) PointObject() (string, bool) {
	for _, c := range q.Where {
		if c.Col == "object" && c.Op == "=" {
			return c.Str, true
		}
	}
	return "", false
}

// transportKeys are URL parameters the query language shares the
// namespace with but does not interpret: output format selection and
// the cluster's internal partial-aggregate flag.
var transportKeys = map[string]bool{"format": true, "partial": true}

// ops in longest-match-first order so "<=" wins over "<".
var ops = []string{"<=", ">=", "!=", "=", "<", ">"}

// Parse builds a Query from URL parameters, validated against the
// relation's columns. Unknown parameters and unknown columns are
// errors (a typo must not silently dump everything).
func Parse(vals url.Values, cols []Column) (*Query, error) {
	q := &Query{}
	colKind := make(map[string]Kind, len(cols))
	for _, c := range cols {
		colKind[c.Name] = c.Kind
	}
	for key := range vals {
		switch key {
		case "where", "order", "limit", "cols", "group", "agg", "disagree":
		default:
			if transportKeys[key] {
				continue
			}
			return nil, fmt.Errorf("unknown query parameter %q", key)
		}
	}
	for _, raw := range vals["where"] {
		cond, err := parseCond(raw, colKind)
		if err != nil {
			return nil, err
		}
		q.Where = append(q.Where, cond)
	}
	if raw := vals.Get("order"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			key := OrderKey{Col: part}
			if strings.HasPrefix(part, "-") {
				key = OrderKey{Col: part[1:], Desc: true}
			}
			if _, ok := colKind[key.Col]; !ok {
				return nil, fmt.Errorf("order: unknown column %q", key.Col)
			}
			q.Order = append(q.Order, key)
		}
	}
	if raw := vals.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("limit: want a positive integer, got %q", raw)
		}
		q.Limit = n
	}
	if raw := vals.Get("cols"); raw != "" {
		for _, name := range strings.Split(raw, ",") {
			if _, ok := colKind[name]; !ok {
				return nil, fmt.Errorf("cols: unknown column %q", name)
			}
			q.Cols = append(q.Cols, name)
		}
	}
	if raw := vals.Get("group"); raw != "" {
		if _, ok := colKind[raw]; !ok {
			return nil, fmt.Errorf("group: unknown column %q", raw)
		}
		q.Group = raw
		aggRaw := vals.Get("agg")
		if aggRaw == "" {
			aggRaw = "count"
		}
		for _, part := range strings.Split(aggRaw, ",") {
			agg, err := parseAgg(part, colKind)
			if err != nil {
				return nil, err
			}
			q.Aggs = append(q.Aggs, agg)
		}
	} else if vals.Get("agg") != "" {
		return nil, fmt.Errorf("agg requires group")
	}
	if q.Group != "" && (len(q.Cols) > 0 || len(q.Order) > 0) {
		return nil, fmt.Errorf("group queries fix their own columns and order (group key ascending); drop cols/order")
	}
	if raw := vals.Get("disagree"); raw != "" {
		a, b, ok := strings.Cut(raw, ",")
		if !ok || a == "" || b == "" {
			return nil, fmt.Errorf("disagree: want two comma-separated source names, got %q", raw)
		}
		q.DisA, q.DisB = a, b
	}
	return q, nil
}

// parseCond parses one where conjunct: col, operator, operand.
func parseCond(raw string, colKind map[string]Kind) (Cond, error) {
	for _, op := range ops {
		i := strings.Index(raw, op)
		if i <= 0 {
			continue
		}
		col, operand := raw[:i], raw[i+len(op):]
		kind, ok := colKind[col]
		if !ok {
			return Cond{}, fmt.Errorf("where: unknown column %q in %q", col, raw)
		}
		cond := Cond{Col: col, Op: op}
		if kind == KindString {
			if op != "=" && op != "!=" {
				return Cond{}, fmt.Errorf("where: column %q is a string; only = and != apply", col)
			}
			cond.Str = operand
			return cond, nil
		}
		n, err := strconv.ParseFloat(operand, 64)
		if err != nil {
			return Cond{}, fmt.Errorf("where: column %q is numeric; cannot parse %q", col, operand)
		}
		cond.Num, cond.num = n, true
		return cond, nil
	}
	return Cond{}, fmt.Errorf("where: want <col><op><value> with op one of = != < <= > >=, got %q", raw)
}

// parseAgg parses one aggregate: "count" or "fn:col" over a numeric
// column.
func parseAgg(raw string, colKind map[string]Kind) (Agg, error) {
	if raw == "count" {
		return Agg{Fn: "count"}, nil
	}
	fn, col, ok := strings.Cut(raw, ":")
	if !ok {
		return Agg{}, fmt.Errorf("agg: want count or fn:col, got %q", raw)
	}
	switch fn {
	case "sum", "avg", "min", "max":
	default:
		return Agg{}, fmt.Errorf("agg: unknown function %q (want count, sum, avg, min, max)", fn)
	}
	kind, okCol := colKind[col]
	if !okCol {
		return Agg{}, fmt.Errorf("agg: unknown column %q", col)
	}
	if kind == KindString {
		return Agg{}, fmt.Errorf("agg: column %q is a string; aggregate a numeric column", col)
	}
	return Agg{Fn: fn, Col: col}, nil
}

// Values re-encodes the query as URL parameters — the canonical form
// the router forwards to members. extraCols, when non-empty, replaces
// the projection (the router widens it so order keys survive the
// member round trip).
func (q *Query) Values(extraCols []string) url.Values {
	vals := url.Values{}
	for _, c := range q.Where {
		operand := c.Str
		if c.num {
			operand = strconv.FormatFloat(c.Num, 'g', -1, 64)
		}
		vals.Add("where", c.Col+c.Op+operand)
	}
	if len(q.Order) > 0 {
		parts := make([]string, len(q.Order))
		for i, k := range q.Order {
			parts[i] = k.Col
			if k.Desc {
				parts[i] = "-" + k.Col
			}
		}
		vals.Set("order", strings.Join(parts, ","))
	}
	if q.Limit > 0 {
		vals.Set("limit", strconv.Itoa(q.Limit))
	}
	cols := q.Cols
	if len(extraCols) > 0 {
		cols = extraCols
	}
	if len(cols) > 0 {
		vals.Set("cols", strings.Join(cols, ","))
	}
	if q.Group != "" {
		vals.Set("group", q.Group)
		parts := make([]string, len(q.Aggs))
		for i, a := range q.Aggs {
			parts[i] = a.Fn
			if a.Fn != "count" {
				parts[i] = a.Fn + ":" + a.Col
			}
		}
		vals.Set("agg", strings.Join(parts, ","))
	}
	if q.DisA != "" {
		vals.Set("disagree", q.DisA+","+q.DisB)
	}
	return vals
}
