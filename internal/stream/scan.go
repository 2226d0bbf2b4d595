// The relational scan surface: the engine-side half of the query
// layer (internal/query). ScanShard walks one shard's live objects
// under its read lock and hands the caller a borrowed Row per object —
// the full relational view (MAP value, confidence, contestedness,
// flip epoch, claim counts) computed in place from the dense slabs, so
// a selective query never materializes an Estimate slice the way
// EstimateAll does. Two predicates are pushed into the scan itself:
// an object key (ScanOptions.Object) turns the slot walk into one
// probe of the shard's name index, and a disagree pair is checked
// against the claim list while the row is filled. The query executor
// above decides which shards to scan (ShardIndex pruning on object
// equality) and which rows to keep; this file only guarantees that a
// shard scan is one RLock, zero allocations, and deterministic slot
// order.
package stream

// Row is the relational view of one live object, the tuple the query
// layer filters, orders and aggregates over. Numeric counters are
// int64 so the query comparators work over exactly two scalar kinds
// (string, number).
type Row struct {
	Object     string  // object name
	Value      string  // current MAP value
	Confidence float64 // posterior probability of the MAP value
	Contested  float64 // 1 - (p1 - p2): complement of the top-two posterior margin
	Changed    int64   // σ-epoch the MAP value last changed (first claim counts)
	Sources    int64   // number of sources claiming this object
	Dissent    int64   // claims whose value differs from the MAP value
	Disagree   bool    // the ScanOptions pair both claim this object and differ
}

// ScanOptions selects the optional per-row work a scan performs.
type ScanOptions struct {
	// PairA/PairB are interned source ids (from SourceIDs) driving
	// Row.Disagree; -1 disables the pair check.
	PairA, PairB int

	// Object, when set, restricts the scan to the live object of that
	// name, found through the shard's name index: at most one row is
	// visited, and none when the object lives in another shard, was
	// evicted, or was never seen.
	Object string
}

// NoPair is the ScanOptions zero state with the disagree pair off.
var NoPair = ScanOptions{PairA: -1, PairB: -1}

// SourceIDs resolves two source names to their interned ids for
// ScanOptions. ok is false when either source has never been seen —
// no row can have them disagreeing. Safe to call during ingest.
func (e *Engine) SourceIDs(a, b string) (ia, ib int, ok bool) {
	e.src.mu.RLock()
	defer e.src.mu.RUnlock()
	ia, okA := e.src.ids[a]
	ib, okB := e.src.ids[b]
	if !okA || !okB {
		return -1, -1, false
	}
	return ia, ib, true
}

// NumShards reports the engine's resolved shard count, the iteration
// domain for ScanShard.
func (e *Engine) NumShards() int { return e.nShards }

// CurrentEpoch reports the engine's σ-table epoch — the clock
// Row.Changed is stamped against. Safe to call during ingest.
func (e *Engine) CurrentEpoch() int64 {
	e.src.mu.RLock()
	defer e.src.mu.RUnlock()
	return e.src.epoch
}

// ScanShard visits every live object in shard s in slot order
// (deterministic for a fixed shard count), filling and passing one
// reused Row; with opt.Object set it visits only that object's slot.
// Returning false from visit stops the scan. The visit callback runs
// under the shard's read lock: it must not retain the *Row (copy it),
// must not block, and must not call back into the engine's write
// paths.
func (e *Engine) ScanShard(s int, opt ScanOptions, visit func(*Row) bool) {
	sh := &e.shards[s]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	valNames := e.valueNames()
	lo, hi := 0, len(sh.objs)
	if opt.Object != "" {
		ix, ok := sh.index[opt.Object]
		if !ok {
			return
		}
		lo, hi = ix, ix+1
	}
	var row Row
	for ix := lo; ix < hi; ix++ {
		obj := &sh.objs[ix]
		if !obj.live || obj.mapIx < 0 {
			continue
		}
		fillRow(obj, valNames, opt, &row)
		if !visit(&row) {
			return
		}
	}
}

// fillRow computes the relational view of one object into row. Caller
// holds the shard lock.
func fillRow(obj *object, valNames []string, opt ScanOptions, row *Row) {
	mi := int(obj.mapIx)
	mapVal := obj.domain[mi]
	p1 := obj.post[mi]
	p2 := 0.0
	for i, p := range obj.post {
		if i != mi && p > p2 {
			p2 = p
		}
	}
	dissent := int64(0)
	pairA, pairB := int32(-1), int32(-1)
	for i := range obj.claims {
		c := &obj.claims[i]
		if c.val != mapVal {
			dissent++
		}
		if opt.PairA >= 0 {
			if int(c.src) == opt.PairA {
				pairA = c.val
			} else if int(c.src) == opt.PairB {
				pairB = c.val
			}
		}
	}
	row.Object = obj.name
	row.Value = valNames[mapVal]
	row.Confidence = p1
	row.Contested = 1 - (p1 - p2)
	row.Changed = obj.changed
	row.Sources = int64(len(obj.claims))
	row.Dissent = dissent
	row.Disagree = pairA >= 0 && pairB >= 0 && pairA != pairB
}
