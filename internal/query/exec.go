// The query executor. Engine-backed execution pushes predicates into
// the per-shard scans (an object-equality conjunct prunes to a single
// shard and probes its name index; the disagree pair resolves to
// interned ids checked during the locked scan) and keeps only bounded
// state per shard: a top-k buffer when the query has a limit, group
// partials when it aggregates. The per-shard results then compose
// lazily — a k-way merge under the query's total order, a projection
// at yield time — so the full estimate set is never materialized.
//
// Determinism contract: every result is totally ordered (the order
// keys, then the object name / the remaining columns), group
// aggregates fold per-shard partials in shard order, and the cluster
// router folds per-member results with the same comparator and the
// same partial-fold tree — so a query's bytes are identical for any
// worker count and for an N-member cluster vs a single N-shard
// engine.
package query

import (
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"

	"slimfast/internal/stream"
)

// Column indices of EstimateColumns, the engine-backed relation.
const (
	colObject = iota
	colValue
	colConfidence
	colContested
	colChanged
	colSources
	colDissent
)

// Result is an executed query: a schema plus a lazy row sequence.
// Rows yields one reused []Val per row — copy it to retain it beyond
// the iteration step.
type Result struct {
	Cols []Column
	Rows iter.Seq[[]Val]
}

// Relation is a materialized table, the input of ExecuteRelation and
// the router's merge.
type Relation struct {
	Cols []Column
	Rows [][]Val
}

// opCode is a compiled comparison operator.
type opCode uint8

const (
	opEq opCode = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

func compileOp(op string) opCode {
	switch op {
	case "=":
		return opEq
	case "!=":
		return opNe
	case "<":
		return opLt
	case "<=":
		return opLe
	case ">":
		return opGt
	default:
		return opGe
	}
}

// condP is a compiled where conjunct.
type condP struct {
	ix   int
	kind Kind
	op   opCode
	str  string
	num  float64
}

func (c *condP) evalStr(s string) bool {
	if c.op == opEq {
		return s == c.str
	}
	return s != c.str
}

func (c *condP) evalNum(f float64) bool {
	switch c.op {
	case opEq:
		return f == c.num
	case opNe:
		return f != c.num
	case opLt:
		return f < c.num
	case opLe:
		return f <= c.num
	case opGt:
		return f > c.num
	default:
		return f >= c.num
	}
}

// aggCode is a compiled aggregate function.
type aggCode uint8

const (
	aggCount aggCode = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

func compileAgg(fn string) aggCode {
	switch fn {
	case "count":
		return aggCount
	case "avg":
		return aggAvg
	case "min":
		return aggMin
	case "max":
		return aggMax
	default:
		return aggSum
	}
}

// aggP is a compiled aggregate.
type aggP struct {
	fn   aggCode
	ix   int    // aggregated column, -1 for count
	kind Kind   // accumulator kind
	name string // output column name
}

// step folds v into the accumulator a in place: sum and avg add,
// min and max keep the extremum. Int accumulators stay exact; float
// addition order is fixed by the caller (slot order within a shard,
// shard/member order across).
func (fn aggCode) step(a *Val, v Val) {
	switch fn {
	case aggMin:
		if v.num() < a.num() {
			*a = v
		}
	case aggMax:
		if v.num() > a.num() {
			*a = v
		}
	default:
		if a.Kind == KindInt {
			a.Int += v.Int
		} else {
			a.Num += v.Num
		}
	}
}

// orderP is a compiled sort key.
type orderP struct {
	ix   int
	kind Kind
	desc bool
}

// plan is a query compiled against a concrete relation schema.
type plan struct {
	cols    []Column
	conds   []condP
	order   []orderP
	proj    []int
	limit   int  // group-path row cap (rows honor Query.Limit directly)
	pair    bool // rows must have the disagree pair disagreeing
	groupIx int  // -1 when not grouping
	aggs    []aggP
}

// colIndex finds a column by name; relations are a handful of columns
// wide, so a scan beats building a map per query.
func colIndex(cols []Column, name string) (int, bool) {
	for i := range cols {
		if cols[i].Name == name {
			return i, true
		}
	}
	return -1, false
}

// compile resolves a parsed query's column names against a schema and
// turns operators and aggregate functions into codes once per query.
// defaultProj is used when the query has no explicit projection.
func compile(q *Query, cols []Column, defaultProj []int) (*plan, error) {
	p := &plan{cols: cols, groupIx: -1, limit: q.Limit, pair: q.DisA != ""}
	for _, c := range q.Where {
		i, ok := colIndex(cols, c.Col)
		if !ok {
			return nil, fmt.Errorf("where: relation has no column %q", c.Col)
		}
		kind := cols[i].Kind
		if (kind == KindString) == c.num {
			return nil, fmt.Errorf("where: column %q type mismatch", c.Col)
		}
		p.conds = append(p.conds, condP{ix: i, kind: kind, op: compileOp(c.Op), str: c.Str, num: c.Num})
	}
	for _, k := range q.Order {
		i, ok := colIndex(cols, k.Col)
		if !ok {
			return nil, fmt.Errorf("order: relation has no column %q", k.Col)
		}
		p.order = append(p.order, orderP{ix: i, kind: cols[i].Kind, desc: k.Desc})
	}
	if q.Group != "" {
		gi, ok := colIndex(cols, q.Group)
		if !ok {
			return nil, fmt.Errorf("group: relation has no column %q", q.Group)
		}
		p.groupIx = gi
		p.aggs = make([]aggP, 0, len(q.Aggs))
		for _, a := range q.Aggs {
			ap := aggP{fn: compileAgg(a.Fn), ix: -1, kind: KindInt, name: a.Name()}
			if ap.fn != aggCount {
				ai, okA := colIndex(cols, a.Col)
				if !okA {
					return nil, fmt.Errorf("agg: relation has no column %q", a.Col)
				}
				if cols[ai].Kind == KindString {
					return nil, fmt.Errorf("agg: column %q is a string", a.Col)
				}
				ap.ix, ap.kind = ai, cols[ai].Kind
			}
			p.aggs = append(p.aggs, ap)
		}
		return p, nil
	}
	if len(q.Cols) == 0 {
		p.proj = defaultProj
	} else {
		for _, name := range q.Cols {
			i, ok := colIndex(cols, name)
			if !ok {
				return nil, fmt.Errorf("cols: relation has no column %q", name)
			}
			p.proj = append(p.proj, i)
		}
	}
	return p, nil
}

// projCols returns the output schema of a non-group plan.
func (p *plan) projCols() []Column {
	out := make([]Column, len(p.proj))
	for i, ix := range p.proj {
		out[i] = p.cols[ix]
	}
	return out
}

// groupCols returns the output schema of a group plan: the group key
// then one column per aggregate (count is an int, avg a float, the
// rest inherit the aggregated column's kind).
func (p *plan) groupCols() []Column {
	out := []Column{p.cols[p.groupIx]}
	for _, a := range p.aggs {
		kind := a.kind
		if a.fn == aggAvg {
			kind = KindFloat
		}
		out = append(out, Column{Name: a.name, Kind: kind})
	}
	return out
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// ---- engine-backed execution over stream.Row ----

func estRowStr(r *stream.Row, ix int) string {
	if ix == colObject {
		return r.Object
	}
	return r.Value
}

func estRowNum(r *stream.Row, ix int) float64 {
	switch ix {
	case colConfidence:
		return r.Confidence
	case colContested:
		return r.Contested
	case colChanged:
		return float64(r.Changed)
	case colSources:
		return float64(r.Sources)
	default:
		return float64(r.Dissent)
	}
}

// matchRow evaluates the compiled conjuncts (and the disagree gate)
// against a borrowed scan row.
func (p *plan) matchRow(r *stream.Row) bool {
	if p.pair && !r.Disagree {
		return false
	}
	for i := range p.conds {
		c := &p.conds[i]
		if c.kind == KindString {
			if !c.evalStr(estRowStr(r, c.ix)) {
				return false
			}
		} else if !c.evalNum(estRowNum(r, c.ix)) {
			return false
		}
	}
	return true
}

// cmpRow is the query's total order over estimate rows: the order
// keys, then the (unique) object name.
func (p *plan) cmpRow(a, b *stream.Row) int {
	for _, k := range p.order {
		var c int
		if k.kind == KindString {
			c = strings.Compare(estRowStr(a, k.ix), estRowStr(b, k.ix))
		} else {
			c = cmpFloat(estRowNum(a, k.ix), estRowNum(b, k.ix))
		}
		if k.desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return strings.Compare(a.Object, b.Object)
}

func (p *plan) sortRows(buf []stream.Row) {
	sort.Slice(buf, func(i, j int) bool { return p.cmpRow(&buf[i], &buf[j]) < 0 })
}

// projectRow fills out (a reused slice) with the projected cells of r.
func (p *plan) projectRow(r *stream.Row, out []Val) {
	for i, ix := range p.proj {
		col := &p.cols[ix]
		switch col.Kind {
		case KindString:
			out[i] = Val{Kind: KindString, Str: estRowStr(r, ix)}
		case KindFloat:
			out[i] = Val{Kind: KindFloat, Num: estRowNum(r, ix)}
		default:
			out[i] = Val{Kind: KindInt, Int: int64(estRowNum(r, ix))}
		}
	}
}

// pushdown resolves the scan half of an engine query: the shards to
// scan and the options each scan runs with. An object-equality
// conjunct pins the query to the one shard that can hold the object
// and turns that shard's scan into an index probe; the disagree pair
// resolves to interned ids. ok is false when one of the pair has never
// been seen, so no row can have them disagreeing.
func pushdown(eng *stream.Engine, q *Query) (shards []int, opt stream.ScanOptions, ok bool) {
	opt = stream.NoPair
	if q.DisA != "" {
		ia, ib, known := eng.SourceIDs(q.DisA, q.DisB)
		if !known {
			return nil, opt, false
		}
		opt.PairA, opt.PairB = ia, ib
	}
	n := eng.NumShards()
	if obj, pinned := q.PointObject(); pinned {
		opt.Object = obj
		return []int{stream.ShardIndex(obj, n)}, opt, true
	}
	shards = make([]int, n)
	for i := range shards {
		shards[i] = i
	}
	return shards, opt, true
}

// Execute runs a compiled query against a live engine. Safe to call
// during ingest (each shard is scanned under its read lock); for
// byte-deterministic results quiesce ingest, as with /estimates.
func Execute(eng *stream.Engine, q *Query) (*Result, error) {
	p, err := compile(q, EstimateColumns(), []int{colObject, colValue, colConfidence})
	if err != nil {
		return nil, err
	}
	shards, opt, ok := pushdown(eng, q)
	if !ok {
		return emptyResult(p), nil
	}
	if p.groupIx >= 0 {
		return p.groupScan(eng, shards, opt).finalize(p), nil
	}
	parts := make([][]stream.Row, len(shards))
	for i, s := range shards {
		parts[i] = collectShard(eng, s, p, opt, q.Limit)
	}
	return &Result{Cols: p.projCols(), Rows: p.mergeRows(parts, q.Limit)}, nil
}

// ExecutePartial runs a group query but stops before finalizing: the
// result is the per-group partial accumulators (count plus raw
// sums/mins/maxes), the cluster's internal scatter format. The router
// folds members' partials in node order — the same fold tree a single
// N-shard engine uses over its shards — then finalizes once.
func ExecutePartial(eng *stream.Engine, q *Query) (*Result, error) {
	if q.Group == "" {
		return nil, fmt.Errorf("partial: not a group query")
	}
	p, err := compile(q, EstimateColumns(), nil)
	if err != nil {
		return nil, err
	}
	shards, opt, ok := pushdown(eng, q)
	if !ok {
		return &Result{Cols: p.partialCols(), Rows: func(func([]Val) bool) {}}, nil
	}
	return p.groupScan(eng, shards, opt).partial(p), nil
}

// groupScan aggregates the matching rows of each shard into a local
// table and folds the tables in shard order.
func (p *plan) groupScan(eng *stream.Engine, shards []int, opt stream.ScanOptions) *groupTable {
	global := newGroupTable()
	for _, s := range shards {
		local := newGroupTable()
		eng.ScanShard(s, opt, func(r *stream.Row) bool {
			if p.matchRow(r) {
				local.addRow(p, r)
			}
			return true
		})
		global.fold(p, local)
	}
	return global
}

// collectShard scans one shard with the predicates pushed down,
// keeping a bounded buffer when the query has a limit: the buffer is
// sorted and cut back to the limit every time it reaches a small
// multiple of it, so a selective query over a huge shard allocates
// O(limit), not O(shard).
func collectShard(eng *stream.Engine, s int, p *plan, opt stream.ScanOptions, limit int) []stream.Row {
	var buf []stream.Row
	cut := 0
	if limit > 0 {
		cut = 4*limit + 16
	}
	eng.ScanShard(s, opt, func(r *stream.Row) bool {
		if !p.matchRow(r) {
			return true
		}
		buf = append(buf, *r)
		if cut > 0 && len(buf) >= cut {
			p.sortRows(buf)
			buf = buf[:limit]
		}
		return true
	})
	p.sortRows(buf)
	if limit > 0 && len(buf) > limit {
		buf = buf[:limit]
	}
	return buf
}

// mergeRows lazily k-way-merges the per-shard sorted buffers under
// the plan's total order, projecting at yield time. Cross-shard ties
// are impossible (an object lives in exactly one shard), so the merge
// order — and therefore the output bytes — does not depend on the
// shard iteration pattern.
func (p *plan) mergeRows(parts [][]stream.Row, limit int) iter.Seq[[]Val] {
	return func(yield func([]Val) bool) {
		heads := make([]int, len(parts))
		out := make([]Val, len(p.proj))
		n := 0
		for limit <= 0 || n < limit {
			best := -1
			for i := range parts {
				if heads[i] >= len(parts[i]) {
					continue
				}
				if best < 0 || p.cmpRow(&parts[i][heads[i]], &parts[best][heads[best]]) < 0 {
					best = i
				}
			}
			if best < 0 {
				return
			}
			p.projectRow(&parts[best][heads[best]], out)
			heads[best]++
			if !yield(out) {
				return
			}
			n++
		}
	}
}

func emptyResult(p *plan) *Result {
	cols := p.projCols()
	if p.groupIx >= 0 {
		cols = p.groupCols()
	}
	return &Result{Cols: cols, Rows: func(func([]Val) bool) {}}
}

// ---- group aggregation ----

// groupAcc is one group's partial state: the row count plus one
// accumulator per aggregate (sum for sum/avg, running min/max).
type groupAcc struct {
	key   Val
	count int64
	accs  []Val
}

// probeGroups is how many groups a table finds by a linear scan
// before it builds a map. Group-bys over values or claim counts stay
// under it; for those, a map-only table made BenchmarkQueryGroup
// about 1.5× slower. Past it the map takes over, and
// BenchmarkQueryGroupMany runs no slower than a map-only table. The
// value 8 is not tuned.
const probeGroups = 8

// groupTable accumulates groups for one scan scope (a shard, or a
// fold of shards/members). Lookups use Go == on Val, through the map
// past probeGroups groups, so both paths share the map's key
// semantics (NaN never matches, -0 matches +0).
type groupTable struct {
	accs []*groupAcc // in insertion order
	m    map[Val]*groupAcc
}

func newGroupTable() *groupTable {
	return &groupTable{accs: make([]*groupAcc, 0, probeGroups)}
}

func (g *groupTable) find(key Val) *groupAcc {
	if g.m != nil {
		return g.m[key]
	}
	for _, acc := range g.accs {
		if acc.key == key {
			return acc
		}
	}
	return nil
}

func (g *groupTable) insert(acc *groupAcc) {
	g.accs = append(g.accs, acc)
	if g.m != nil {
		g.m[acc.key] = acc
		return
	}
	if len(g.accs) > probeGroups {
		g.m = make(map[Val]*groupAcc, 2*len(g.accs))
		for _, a := range g.accs {
			g.m[a.key] = a
		}
	}
}

func colVal(cols []Column, ix int, r *stream.Row) Val {
	switch cols[ix].Kind {
	case KindString:
		return Val{Kind: KindString, Str: estRowStr(r, ix)}
	case KindFloat:
		return Val{Kind: KindFloat, Num: estRowNum(r, ix)}
	default:
		return Val{Kind: KindInt, Int: int64(estRowNum(r, ix))}
	}
}

// addRow folds one estimate row into the table.
func (g *groupTable) addRow(p *plan, r *stream.Row) {
	key := colVal(p.cols, p.groupIx, r)
	acc := g.find(key)
	if acc == nil {
		acc = &groupAcc{key: key, count: 1, accs: make([]Val, len(p.aggs))}
		for i := range p.aggs {
			if ix := p.aggs[i].ix; ix >= 0 {
				acc.accs[i] = colVal(p.cols, ix, r)
			} else {
				acc.accs[i] = Val{Kind: KindInt}
			}
		}
		g.insert(acc)
		return
	}
	acc.count++
	for i := range p.aggs {
		if a := &p.aggs[i]; a.ix >= 0 {
			a.fn.step(&acc.accs[i], colVal(p.cols, a.ix, r))
		}
	}
}

// merge folds a partial group (one shard's or one member's) into g,
// adopting it when g has no group with its key.
func (g *groupTable) merge(p *plan, part *groupAcc) {
	acc := g.find(part.key)
	if acc == nil {
		g.insert(part)
		return
	}
	acc.count += part.count
	for i := range p.aggs {
		if p.aggs[i].ix >= 0 {
			p.aggs[i].fn.step(&acc.accs[i], part.accs[i])
		}
	}
}

// fold merges a finer-grained table (one shard, one member) into g.
// Per group the accumulators combine exactly once per fold, so the
// float addition tree is "partial per scope, folded in scope order" —
// identical for a single N-shard engine and an N-member cluster.
func (g *groupTable) fold(p *plan, local *groupTable) {
	for _, la := range local.accs {
		g.merge(p, la)
	}
}

// sortedAccs sorts the groups by key ascending — the fixed output
// (and partial emission) order — and returns them.
func (g *groupTable) sortedAccs() []*groupAcc {
	slices.SortFunc(g.accs, func(a, b *groupAcc) int { return cmpVal(a.key, b.key) })
	return g.accs
}

// cmpVal orders two cells of the same column.
func cmpVal(a, b Val) int {
	if a.Kind == KindString {
		return strings.Compare(a.Str, b.Str)
	}
	return cmpFloat(a.num(), b.num())
}

// finalize turns the folded table into the group query's result:
// rows sorted by group key, avg divided out once, the limit applied
// here (never to partials — truncating a partial would corrupt the
// cluster fold).
func (g *groupTable) finalize(p *plan) *Result {
	accs := g.sortedAccs()
	if p.limit > 0 && len(accs) > p.limit {
		accs = accs[:p.limit]
	}
	cols := p.groupCols()
	rows := func(yield func([]Val) bool) {
		out := make([]Val, len(cols))
		for _, acc := range accs {
			out[0] = acc.key
			for i, a := range p.aggs {
				switch a.fn {
				case aggCount:
					out[i+1] = Val{Kind: KindInt, Int: acc.count}
				case aggAvg:
					out[i+1] = Val{Kind: KindFloat, Num: acc.accs[i].num() / float64(acc.count)}
				default:
					out[i+1] = acc.accs[i]
				}
			}
			if !yield(out) {
				return
			}
		}
	}
	return &Result{Cols: cols, Rows: rows}
}

// partialCols is the wire schema of a partial group result: the group
// key, the count, then one raw accumulator per aggregate.
func (p *plan) partialCols() []Column {
	cols := []Column{p.cols[p.groupIx], {Name: "count", Kind: KindInt}}
	for _, a := range p.aggs {
		cols = append(cols, Column{Name: "acc:" + a.name, Kind: a.kind})
	}
	return cols
}

// partial emits the folded table unfinalized, sorted by group key.
func (g *groupTable) partial(p *plan) *Result {
	accs := g.sortedAccs()
	cols := p.partialCols()
	rows := func(yield func([]Val) bool) {
		out := make([]Val, len(cols))
		for _, acc := range accs {
			out[0] = acc.key
			out[1] = Val{Kind: KindInt, Int: acc.count}
			for i := range p.aggs {
				out[i+2] = acc.accs[i]
			}
			if !yield(out) {
				return
			}
		}
	}
	return &Result{Cols: cols, Rows: rows}
}

// PartialColumns exposes the partial wire schema for a group query —
// what the router parses member responses against.
func PartialColumns(q *Query) ([]Column, error) {
	p, err := compile(q, EstimateColumns(), nil)
	if err != nil {
		return nil, err
	}
	if p.groupIx < 0 {
		return nil, fmt.Errorf("partial: not a group query")
	}
	return p.partialCols(), nil
}

// MergePartials folds per-member partial rows (node order) and
// finalizes — the router half of a cluster group query.
func MergePartials(q *Query, members [][][]Val) (*Result, error) {
	p, err := compile(q, EstimateColumns(), nil)
	if err != nil {
		return nil, err
	}
	if p.groupIx < 0 {
		return nil, fmt.Errorf("partial: not a group query")
	}
	global := newGroupTable()
	for _, rows := range members {
		for _, row := range rows {
			if len(row) != 2+len(p.aggs) {
				return nil, fmt.Errorf("partial: row has %d cells, want %d", len(row), 2+len(p.aggs))
			}
			global.merge(p, &groupAcc{key: row[0], count: row[1].Int, accs: append([]Val(nil), row[2:]...)})
		}
	}
	return global.finalize(p), nil
}
