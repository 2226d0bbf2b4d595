// The sharded streaming engine: the serving-grade sibling of the
// sequential Fuser, built in the compiled-layout style of
// internal/core.
//
// Objects are hash-partitioned across N shards. Each shard owns dense
// state for its objects — claims as (source id, value id) pairs, the
// object's value domain in first-seen order, a log-space score
// accumulator per domain value, and the cached posterior — so Observe
// is an O(domain) delta update on reused slices, not the per-call map
// rebuild the Fuser does.
//
// The cross-shard coupling (source reliability) follows a
// frozen-accuracy epoch contract, the streaming analog of the σ-cache
// contract in internal/core: within an epoch every shard scores
// against the same frozen σ-table, and per-source agreement mass
// accumulates in shard-local delta vectors. Every EpochLength
// observations the engine drains the deltas in shard order (a
// deterministic ordered reduction), folds them into the global
// source state, recomputes accuracies and the σ-table, and bumps the
// epoch; shards lazily rescore an object with the fresh σ the first
// time they touch it in the new epoch. Because shards only
// communicate through the frozen table and the ordered drain, results
// are bit-identical for any Workers count (given fixed Shards and the
// same Observe/ObserveBatch call sequence).
//
// Refine is the periodic exact re-sweep: it recomputes accuracies
// from posteriors and posteriors from accuracies over all live
// objects (plus the retained mass of evicted ones), the same fixed
// point the sequential Fuser's Refine converges to.
package stream

import (
	"errors"
	"iter"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slimfast/internal/data"
	"slimfast/internal/mathx"
	"slimfast/internal/online"
	"slimfast/internal/parallel"
)

// EngineOptions tunes the sharded streaming engine. The embedded
// Options carry the same estimator settings as the sequential Fuser,
// with one semantic difference: Decay applies at epoch granularity
// (the refresh discounts a source's settled mass by Decay^k for its k
// observations that epoch), and evidence that is merely re-asserted
// decays rather than being refreshed per observation as in the Fuser.
// Both engines agree again after Refine, which — like the Fuser's —
// rebuilds mass from the undecayed claim set.
type EngineOptions struct {
	Options

	// Shards is the number of object partitions; <= 0 selects
	// runtime.GOMAXPROCS(0). Results are deterministic for a fixed
	// shard count; changing it reorders float accumulation (and so the
	// low bits), not the semantics.
	Shards int

	// Workers bounds the goroutines used by ObserveBatch, Refine and
	// Estimates; <= 0 selects runtime.GOMAXPROCS(0). Any value yields
	// bit-identical results for a fixed Shards.
	Workers int

	// EpochLength is the number of observations between σ-table
	// refreshes; <= 0 selects DefaultEpochLength. Shorter epochs track
	// source drift faster at the cost of more frequent drains.
	EpochLength int

	// Features assigns domain feature labels to source names (the
	// paper's f_sk indicators: "BounceRate=Low", "feed=alpha", ...).
	// A non-nil map enables online discriminative learning; sources
	// absent from the map participate with no features (intercept
	// only). The map is read at source-intern and refresh time only —
	// callers must not mutate it after NewEngine.
	Features map[string][]string

	// OnlineLearn enables the discriminative reliability learner even
	// without features (windowed agreement + intercept-only
	// regression, which already adapts to drift). Implied by a
	// non-empty Features map.
	OnlineLearn bool

	// Learn tunes the online learner; the zero value selects
	// online.DefaultConfig() with InitAccuracy inherited from Options.
	Learn online.Config

	// MaxObjects bounds live per-object state: when positive, each
	// shard keeps at most ceil(MaxObjects/Shards) objects and evicts
	// the least recently observed beyond that. Evicted objects keep
	// contributing their last posterior mass to source accuracies
	// (evicted-mass accounting); their per-object state is freed and
	// Value reports them as unknown. Eviction forgets claim identity:
	// an evicted object that is observed again enters as a fresh
	// object, so its sources' earlier (retained) mass and the new
	// claims both count — under heavy evict/re-observe churn a
	// source's evidence mass reflects observation traffic rather than
	// the deduplicated (source, object) claim set an unbounded engine
	// (or the Fuser) would keep. That is the memory/fidelity trade;
	// size MaxObjects above the working set where exactness matters.
	MaxObjects int

	// DedupWindow bounds the ingest idempotency window: how many
	// recent batch sequence keys (MarkSeq) the engine remembers — and
	// checkpoints, so a client retry straddling a restart still
	// collapses to exactly-once. <= 0 selects DefaultDedupWindow.
	DedupWindow int
}

// DefaultEpochLength is the σ-refresh interval used when
// EngineOptions.EpochLength is unset.
const DefaultEpochLength = 1024

// DefaultDedupWindow is the sequence-key window used when
// EngineOptions.DedupWindow is unset: large enough that a retry storm
// across a fleet of replaying clients stays deduplicated, small
// enough that the window is noise in the checkpoint.
const DefaultDedupWindow = 4096

// DefaultEngineOptions returns production defaults: Fuser estimator
// settings, one shard per core, unbounded memory.
func DefaultEngineOptions() EngineOptions {
	return EngineOptions{Options: DefaultOptions()}
}

// Validate reports the first invalid option.
func (o EngineOptions) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if o.MaxObjects < 0 {
		return errors.New("stream: MaxObjects must be non-negative")
	}
	if o.onlineEnabled() {
		if err := o.learnConfig().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// onlineEnabled reports whether the options select the discriminative
// learner path.
func (o EngineOptions) onlineEnabled() bool {
	return o.OnlineLearn || len(o.Features) > 0
}

// learnConfig resolves the learner configuration: the zero value means
// defaults, with the learner's prior anchored on the engine's
// InitAccuracy.
func (o EngineOptions) learnConfig() online.Config {
	cfg := o.Learn
	if cfg == (online.Config{}) {
		cfg = online.DefaultConfig()
		cfg.InitAccuracy = o.InitAccuracy
	}
	return cfg
}

// Triple is one streamed claim: Source says Object has Value.
type Triple struct {
	Source, Object, Value string
}

// claim is one (source, value) assertion inside an object. settled is
// the posterior mass last folded into the shard's agreement deltas for
// this claim; the next drain adds post[value] - settled.
type claim struct {
	src     int32
	val     int32
	settled float64
}

// object is the dense per-object state a shard owns. Domain entries
// are never removed (slots stay for value ids seen once), but only
// entries with a live claim (refs > 0) participate in the posterior —
// matching the Fuser, whose domain is always the currently claimed
// value set.
type object struct {
	name    string
	epoch   int64     // σ-table epoch the scores were computed under
	changed int64     // epoch the MAP value last changed (0 until first claim)
	claims  []claim   // one per claiming source
	domain  []int32   // global value ids, first-seen order
	refs    []int32   // live claims per domain entry
	scores  []float64 // log-odds accumulator per domain entry
	post    []float64 // cached posterior per domain entry
	mapIx   int32     // cached domain index of the MAP value, -1 = none
	dirty   bool      // true when post has drifted from settled
	live    bool      // false for freelist slots
	// Intrusive LRU links (shard-local object indices, -1 = none).
	prev, next int
}

// refreshPosterior recomputes the cached posterior in place: a stable
// softmax over the claimed (refs > 0) domain entries, zero elsewhere.
func (o *object) refreshPosterior() {
	if cap(o.post) < len(o.scores) {
		o.post = make([]float64, len(o.scores))
	}
	o.post = o.post[:len(o.scores)]
	m := math.Inf(-1)
	for i, r := range o.refs {
		if r > 0 && o.scores[i] > m {
			m = o.scores[i]
		}
	}
	var sum float64
	for i, r := range o.refs {
		if r > 0 {
			sum += math.Exp(o.scores[i] - m)
		}
	}
	lse := m + math.Log(sum)
	for i, r := range o.refs {
		if r > 0 {
			o.post[i] = math.Exp(o.scores[i] - lse)
		} else {
			o.post[i] = 0
		}
	}
}

// shard owns a hash partition of the objects plus the shard-local
// accumulators that keep Observe free of cross-shard synchronization.
type shard struct {
	mu      sync.RWMutex
	index   map[string]int // object name -> objs slot
	objs    []object
	free    []int // reusable objs slots (from eviction)
	dirtyIx []int // slots to settle at the next drain
	lruHead int
	lruTail int
	nLive   int

	// Per-source accumulators since the last drain, indexed by global
	// source id (grown on demand).
	deltaAgree []float64
	deltaTotal []float64
	obsCount   []int64 // observations per source (drives decay)

	// Retained mass of evicted objects, indexed by source id. Never
	// reset: Refine rebuilds live mass from scratch on top of this.
	evictedAgree []float64
	evictedTotal []float64

	evictedObjects int64
	evictedClaims  int64
	evictedMass    float64
}

// sourceTable is the engine-global source state. ids/names intern
// source strings; agree/total are the settled (drained) evidence
// masses; acc/sigma are the frozen per-epoch estimates every shard
// scores against.
type sourceTable struct {
	mu    sync.RWMutex
	ids   map[string]int
	names []string
	agree []float64
	total []float64
	acc   []float64
	sigma []float64
	epoch int64
}

// valueTable interns value strings to global dense ids.
type valueTable struct {
	mu    sync.RWMutex
	ids   map[string]int
	names []string
}

// Engine is a sharded, concurrent, incremental streaming fusion
// engine. Observe and ObserveBatch may run concurrently with the read
// API (Value, Estimates, SourceAccuracy, Stats); determinism across
// worker counts is guaranteed for a single ingesting caller.
type Engine struct {
	opts      EngineOptions
	nShards   int
	epochLen  int64
	shardCap  int // per-shard live-object cap, 0 = unbounded
	initSigma float64

	shards []shard
	src    sourceTable
	vals   valueTable

	refreshMu sync.Mutex // serializes epoch refreshes and Refine
	nObs      atomic.Int64
	sinceEp   atomic.Int64

	// learner is the online discriminative-reliability model (nil
	// unless the options enable it). All mutation happens under
	// refreshMu; learnMu additionally guards it so the read API can
	// consult predictions while a refresh retrains. features is the
	// source-name → labels table the learner registers from.
	learner  *online.Learner
	learnMu  sync.RWMutex
	features map[string][]string

	// Ingest idempotency window: a bounded ring of recent batch
	// sequence keys plus its membership set, guarded by seqMu. The
	// window rides in the checkpoint (v3) so retries that straddle a
	// restart still deduplicate.
	seqMu   sync.Mutex
	seqKeys []string
	seqHead int // ring start when full
	seqSet  map[string]struct{}
	seqCap  int

	// Drain scratch, reused across refreshes (guarded by refreshMu).
	mergeAgree []float64
	mergeTotal []float64
	mergeObs   []int64
	accScratch []float64

	// met is the optional instrumentation seam (SetMetrics); the zero
	// value is a no-op and the hot-path increments are atomic adds.
	met Metrics
}

// NewEngine returns an empty sharded engine.
func NewEngine(opts EngineOptions) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := parallel.Resolve(opts.Shards)
	e := &Engine{
		opts:     opts,
		nShards:  n,
		epochLen: int64(opts.EpochLength),
		shards:   make([]shard, n),
	}
	if e.epochLen <= 0 {
		e.epochLen = DefaultEpochLength
	}
	e.seqCap = opts.DedupWindow
	if e.seqCap <= 0 {
		e.seqCap = DefaultDedupWindow
	}
	e.seqSet = make(map[string]struct{})
	if opts.MaxObjects > 0 {
		e.shardCap = (opts.MaxObjects + n - 1) / n
	}
	if opts.onlineEnabled() {
		learner, err := online.New(opts.learnConfig())
		if err != nil {
			return nil, err
		}
		e.learner = learner
		e.features = opts.Features
	}
	e.initSigma = mathx.Logit(smoothedAccuracy(opts.Options, 0, 0))
	for i := range e.shards {
		sh := &e.shards[i]
		sh.index = map[string]int{}
		sh.lruHead, sh.lruTail = -1, -1
	}
	e.src.ids = map[string]int{}
	e.vals.ids = map[string]int{}
	return e, nil
}

// fnvHash is FNV-1a over the string bytes, inlined so the Observe hot
// path does not allocate a hasher.
func fnvHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardOf routes an object name to its shard.
func (e *Engine) shardOf(object string) *shard {
	return &e.shards[ShardIndex(object, e.nShards)]
}

// lookupSource interns the source and returns its id, its frozen σ,
// and the current epoch in one lock acquisition.
func (e *Engine) lookupSource(name string) (sid int, sigma float64, epoch int64) {
	e.src.mu.RLock()
	if id, ok := e.src.ids[name]; ok {
		sigma, epoch = e.src.sigma[id], e.src.epoch
		e.src.mu.RUnlock()
		return id, sigma, epoch
	}
	e.src.mu.RUnlock()
	e.src.mu.Lock()
	id, ok := e.src.ids[name]
	if !ok {
		id = len(e.src.names)
		e.src.ids[name] = id
		e.src.names = append(e.src.names, name)
		e.src.agree = append(e.src.agree, 0)
		e.src.total = append(e.src.total, 0)
		e.src.acc = append(e.src.acc, smoothedAccuracy(e.opts.Options, 0, 0))
		e.src.sigma = append(e.src.sigma, e.initSigma)
	}
	sigma, epoch = e.src.sigma[id], e.src.epoch
	e.src.mu.Unlock()
	return id, sigma, epoch
}

// lookupValue interns the value and returns its id.
func (e *Engine) lookupValue(name string) int {
	e.vals.mu.RLock()
	if id, ok := e.vals.ids[name]; ok {
		e.vals.mu.RUnlock()
		return id
	}
	e.vals.mu.RUnlock()
	e.vals.mu.Lock()
	id, ok := e.vals.ids[name]
	if !ok {
		id = len(e.vals.names)
		e.vals.ids[name] = id
		e.vals.names = append(e.vals.names, name)
	}
	e.vals.mu.Unlock()
	return id
}

// Observe ingests one claim. Re-claiming the same (source, object)
// replaces the previous value (single-truth semantics, as in the
// Fuser). Safe for concurrent use; for bit-deterministic results use a
// single ingesting goroutine or ObserveBatch.
func (e *Engine) Observe(source, objectName, value string) {
	sid, sigma, epoch := e.lookupSource(source)
	vid := e.lookupValue(value)
	sh := e.shardOf(objectName)
	sh.mu.Lock()
	sh.observe(e, objectName, sid, vid, sigma, epoch)
	sh.mu.Unlock()
	e.nObs.Add(1)
	e.met.Observations.Inc()
	if e.sinceEp.Add(1) >= e.epochLen {
		e.maybeRefresh()
	}
}

// resolvedClaim carries a claim's interned ids and the frozen σ it
// will be scored with, captured on the calling goroutine.
type resolvedClaim struct {
	sid   int
	vid   int
	sigma float64
	epoch int64
}

// ObserveBatch ingests a batch of claims with up to Workers
// goroutines. Sources and values are interned on the calling
// goroutine in batch order — so the dense ids (which the online
// learner's minibatch shuffle keys on) depend only on the claim
// stream, never on goroutine scheduling — then claims are partitioned
// by object shard and each shard applies its sub-sequence in batch
// order. The result is bit-identical for any worker count: the
// deterministic parallel ingest path.
func (e *Engine) ObserveBatch(batch []Triple) {
	if len(batch) == 0 {
		return
	}
	perShard := make([][]int, e.nShards)
	res := make([]resolvedClaim, len(batch))
	for i := range batch {
		tr := &batch[i]
		sid, sigma, epoch := e.lookupSource(tr.Source)
		res[i] = resolvedClaim{sid: sid, vid: e.lookupValue(tr.Value), sigma: sigma, epoch: epoch}
		s := ShardIndex(tr.Object, e.nShards)
		perShard[s] = append(perShard[s], i)
	}
	parallel.For(e.nShards, e.opts.Workers, func(s int) {
		ixs := perShard[s]
		if len(ixs) == 0 {
			return
		}
		sh := &e.shards[s]
		sh.mu.Lock()
		for _, i := range ixs {
			r := &res[i]
			sh.observe(e, batch[i].Object, r.sid, r.vid, r.sigma, r.epoch)
		}
		sh.mu.Unlock()
	})
	e.nObs.Add(int64(len(batch)))
	e.met.Observations.Add(uint64(len(batch)))
	if e.sinceEp.Add(int64(len(batch))) >= e.epochLen {
		e.maybeRefresh()
	}
}

// observe applies one claim to a shard-owned object. Caller holds
// sh.mu. The hot path is O(domain): a σ delta on the score slab and an
// in-place softmax. The first touch of an object in a new epoch
// rebuilds its scores against the fresh σ-table (O(claims), amortized
// once per object per epoch).
func (sh *shard) observe(e *Engine, name string, sid, vid int, sigma float64, epoch int64) {
	ix, ok := sh.index[name]
	if !ok {
		ix = sh.insert(e, name, epoch)
	}
	obj := &sh.objs[ix]
	if obj.epoch != epoch {
		sh.rescore(e, obj, epoch)
	}

	// Locate an existing claim by this source (claim lists are small:
	// the sources observing one object).
	ci := -1
	for i := range obj.claims {
		if obj.claims[i].src == int32(sid) {
			ci = i
			break
		}
	}
	sh.ensureSource(sid)
	sh.obsCount[sid]++
	switch {
	case ci >= 0 && obj.claims[ci].val == int32(vid):
		// Same claim re-asserted: scores and posterior are unchanged.
	case ci >= 0:
		// The source changed its mind: move its σ between values.
		old := obj.domainIndex(obj.claims[ci].val)
		obj.scores[old] -= sigma
		obj.refs[old]--
		nw := obj.ensureDomain(int32(vid))
		obj.scores[nw] += sigma
		obj.refs[nw]++
		obj.claims[ci].val = int32(vid)
		obj.refreshPosterior()
		obj.noteMAP(e.valueNames(), epoch)
	default:
		obj.claims = append(obj.claims, claim{src: int32(sid), val: int32(vid)})
		sh.deltaTotal[sid]++
		nw := obj.ensureDomain(int32(vid))
		obj.scores[nw] += sigma
		obj.refs[nw]++
		obj.refreshPosterior()
		obj.noteMAP(e.valueNames(), epoch)
	}
	if !obj.dirty {
		obj.dirty = true
		sh.dirtyIx = append(sh.dirtyIx, ix)
	}
	sh.lruTouch(ix)
}

// domainIndex returns the slab index of value v (present by
// construction).
func (o *object) domainIndex(v int32) int {
	for i, d := range o.domain {
		if d == v {
			return i
		}
	}
	panic("stream: value not in object domain")
}

// ensureDomain returns the slab index of v, appending a new domain
// entry when v is first claimed for this object.
func (o *object) ensureDomain(v int32) int {
	for i, d := range o.domain {
		if d == v {
			return i
		}
	}
	o.domain = append(o.domain, v)
	o.refs = append(o.refs, 0)
	o.scores = append(o.scores, 0)
	return len(o.domain) - 1
}

// rescore rebuilds an object's score slab against the current σ-table
// and stamps it with the epoch. Caller holds sh.mu.
func (sh *shard) rescore(e *Engine, obj *object, epoch int64) {
	for i := range obj.scores {
		obj.scores[i] = 0
	}
	e.src.mu.RLock()
	for i := range obj.claims {
		c := &obj.claims[i]
		obj.scores[obj.domainIndex(c.val)] += e.src.sigma[c.src]
	}
	e.src.mu.RUnlock()
	obj.refreshPosterior()
	obj.noteMAP(e.valueNames(), epoch)
	obj.epoch = epoch
}

// noteMAP refreshes the cached MAP domain index after a posterior
// change and stamps the flip epoch when the MAP value moved — the
// bookkeeping behind Row.Changed ("estimates that flipped since epoch
// E"). An object's very first claim counts as a flip: the estimate
// appeared. Caller holds the shard lock.
func (o *object) noteMAP(valNames []string, epoch int64) {
	ix := mapIndex(o, valNames)
	if ix >= 0 && ix != o.mapIx {
		o.mapIx = ix
		o.changed = epoch
	}
}

// mapIndex returns the domain index of the object's MAP value under
// the engine's tie-break (ties go to the lexically smaller value
// name), or -1 when the object has no posterior yet. Caller holds the
// shard lock and passes a valueNames() snapshot.
func mapIndex(o *object, valNames []string) int32 {
	if len(o.post) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(o.domain); i++ {
		if o.post[i] > o.post[best] ||
			(o.post[i] == o.post[best] && valNames[o.domain[i]] < valNames[o.domain[best]]) {
			best = i
		}
	}
	return int32(best)
}

// ensureSource grows the shard-local per-source vectors to cover sid.
func (sh *shard) ensureSource(sid int) {
	for len(sh.deltaAgree) <= sid {
		sh.deltaAgree = append(sh.deltaAgree, 0)
		sh.deltaTotal = append(sh.deltaTotal, 0)
		sh.obsCount = append(sh.obsCount, 0)
		sh.evictedAgree = append(sh.evictedAgree, 0)
		sh.evictedTotal = append(sh.evictedTotal, 0)
	}
}

// insert allocates (or reuses) an object slot, links it into the LRU,
// and evicts beyond the shard cap. Caller holds sh.mu.
func (sh *shard) insert(e *Engine, name string, epoch int64) int {
	var ix int
	if n := len(sh.free); n > 0 {
		ix = sh.free[n-1]
		sh.free = sh.free[:n-1]
		obj := &sh.objs[ix]
		obj.name = name
		obj.epoch = epoch
		obj.changed = 0
		obj.claims = obj.claims[:0]
		obj.domain = obj.domain[:0]
		obj.refs = obj.refs[:0]
		obj.scores = obj.scores[:0]
		obj.post = obj.post[:0]
		obj.mapIx = -1
		obj.dirty = false
		obj.live = true
	} else {
		ix = len(sh.objs)
		sh.objs = append(sh.objs, object{name: name, epoch: epoch, live: true, mapIx: -1, prev: -1, next: -1})
	}
	sh.index[name] = ix
	sh.lruPush(ix)
	sh.nLive++
	if e.shardCap > 0 && sh.nLive > e.shardCap {
		sh.evict(sh.lruTail)
		e.met.EvictedObjects.Inc()
	}
	return ix
}

// evict settles and drops the object in slot ix, retaining its
// posterior mass in the shard's evicted accumulators. Caller holds
// sh.mu.
func (sh *shard) evict(ix int) {
	obj := &sh.objs[ix]
	for i := range obj.claims {
		c := &obj.claims[i]
		p := obj.post[obj.domainIndex(c.val)]
		sh.deltaAgree[c.src] += p - c.settled
		sh.evictedAgree[c.src] += p
		sh.evictedTotal[c.src]++
		sh.evictedMass += p
	}
	sh.evictedObjects++
	sh.evictedClaims += int64(len(obj.claims))
	sh.lruUnlink(ix)
	delete(sh.index, obj.name)
	obj.name = ""
	obj.dirty = false
	obj.live = false
	sh.free = append(sh.free, ix)
	sh.nLive--
}

// lruPush links ix at the head (most recent). Caller holds sh.mu.
func (sh *shard) lruPush(ix int) {
	obj := &sh.objs[ix]
	obj.prev = -1
	obj.next = sh.lruHead
	if sh.lruHead >= 0 {
		sh.objs[sh.lruHead].prev = ix
	}
	sh.lruHead = ix
	if sh.lruTail < 0 {
		sh.lruTail = ix
	}
}

// lruUnlink removes ix from the list. Caller holds sh.mu.
func (sh *shard) lruUnlink(ix int) {
	obj := &sh.objs[ix]
	if obj.prev >= 0 {
		sh.objs[obj.prev].next = obj.next
	} else {
		sh.lruHead = obj.next
	}
	if obj.next >= 0 {
		sh.objs[obj.next].prev = obj.prev
	} else {
		sh.lruTail = obj.prev
	}
	obj.prev, obj.next = -1, -1
}

// lruTouch moves ix to the head. Caller holds sh.mu.
func (sh *shard) lruTouch(ix int) {
	if sh.lruHead == ix {
		return
	}
	sh.lruUnlink(ix)
	sh.lruPush(ix)
}

// drain folds the shard's dirty-object posterior drift into its delta
// vectors and hands (deltaAgree, deltaTotal, obsCount) to fold, which
// must copy what it needs; the vectors are zeroed before returning.
// Caller must not hold sh.mu.
func (sh *shard) drain(fold func(agree, total []float64, obs []int64)) {
	sh.mu.Lock()
	for _, ix := range sh.dirtyIx {
		obj := &sh.objs[ix]
		if !obj.dirty {
			continue // settled by eviction (or a duplicate entry)
		}
		for i := range obj.claims {
			c := &obj.claims[i]
			p := obj.post[obj.domainIndex(c.val)]
			if d := p - c.settled; d != 0 {
				sh.deltaAgree[c.src] += d
				c.settled = p
			}
		}
		obj.dirty = false
	}
	sh.dirtyIx = sh.dirtyIx[:0]
	fold(sh.deltaAgree, sh.deltaTotal, sh.obsCount)
	for i := range sh.deltaAgree {
		sh.deltaAgree[i] = 0
		sh.deltaTotal[i] = 0
		sh.obsCount[i] = 0
	}
	sh.mu.Unlock()
}

// maybeRefresh runs an epoch refresh if the observation budget is
// still spent once the refresh lock is held (another goroutine may
// have refreshed first).
func (e *Engine) maybeRefresh() {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	if e.sinceEp.Load() < e.epochLen {
		return
	}
	e.sinceEp.Store(0)
	e.refreshLocked()
}

// refreshLocked drains every shard in shard order, folds the deltas
// into the global source state, recomputes accuracies and the
// σ-table, and bumps the epoch. Caller holds refreshMu.
func (e *Engine) refreshLocked() {
	var began time.Time
	if e.met.EpochRefreshSeconds != nil {
		began = time.Now()
	}
	// The merge buffers grow to cover whatever source ids the shard
	// drains reference: a concurrent Observe may intern new sources
	// after any initial count snapshot, so sizing is driven by the
	// drained vectors themselves, never by a stale length.
	agree := e.mergeAgree[:0]
	total := e.mergeTotal[:0]
	obs := e.mergeObs[:0]
	// Shard order fixes the float accumulation order: the drain is a
	// deterministic ordered reduction regardless of who ingested what.
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
	n := len(agree) // every id here exists: interning precedes claims

	// Online mode: register newly interned sources, feed the learner
	// this epoch's settled deltas, and take the σ-table from its
	// feature-smoothed windowed estimates instead of the cumulative
	// agreement ratio. Predictions are computed for every registered
	// source (feature weights move every refresh, so even sources with
	// no traffic this epoch get a fresh σ), before src.mu is taken so
	// the lock order stays acyclic.
	var acc []float64
	if e.learner != nil {
		names := e.sourceNames()
		e.learnMu.Lock()
		for sid := e.learner.NumSources(); sid < len(names); sid++ {
			e.learner.SetFeatures(sid, e.features[names[sid]])
		}
		e.learner.ObserveEpoch(agree, total)
		acc = e.accScratch[:0]
		for s := range names {
			acc = append(acc, e.learner.Accuracy(s))
		}
		if e.met.FeatureWeightNorm != nil {
			e.met.FeatureWeightNorm.Set(e.learner.WeightNorm())
		}
		e.learnMu.Unlock()
		e.accScratch = acc
		e.met.LearnerEpochs.Inc()
	}

	e.src.mu.Lock()
	FoldEpoch(e.src.agree, e.src.total, agree, total, obs, e.opts.Decay)
	if acc == nil {
		for s := 0; s < n; s++ {
			e.src.acc[s] = smoothedAccuracy(e.opts.Options, e.src.agree[s], e.src.total[s])
			e.src.sigma[s] = mathx.Logit(e.src.acc[s])
		}
	}
	// acc covers the name-table snapshot; sources interned after it by
	// a concurrent Observe keep their prior σ until the next refresh.
	for s := 0; s < len(acc) && s < len(e.src.acc); s++ {
		e.src.acc[s] = acc[s]
		e.src.sigma[s] = mathx.Logit(acc[s])
	}
	e.src.epoch++
	epoch := e.src.epoch
	e.src.mu.Unlock()
	e.met.EpochRefreshes.Inc()
	e.met.Epoch.Set(float64(epoch))
	if e.met.EpochRefreshSeconds != nil {
		e.met.EpochRefreshSeconds.Observe(time.Since(began).Seconds())
	}
}

// Refine runs full re-estimation sweeps — accuracies from posteriors,
// then posteriors from the new accuracies — over all live objects,
// with evicted mass as the irreducible base. This is the exact
// re-sweep of the Fuser's Refine: both converge to the same fixed
// point, and the engine's result is bit-identical for any Workers
// count. Refine locks out epoch refreshes; for deterministic output
// do not ingest concurrently.
func (e *Engine) Refine(sweeps int) {
	if sweeps <= 0 {
		return
	}
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	type mass struct{ agree, total []float64 }
	for sweep := 0; sweep < sweeps; sweep++ {
		// Per-shard partial sums under the current posteriors; each
		// claim's settled mark moves to the value just summed so later
		// drains stay consistent with the rebuilt global state. The
		// vectors are sized by the ids actually referenced (a
		// concurrent Observe may intern sources mid-sweep, so a
		// snapshotted global count would be stale).
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
		if n == 0 {
			return
		}
		// Online mode mirrors core.Calibrate's structure sweep by
		// sweep: pool the exact per-source agreement mass (in shard
		// order — deterministic), refit the feature weights on it
		// (FitMass, the feature-pooling SGD pass), then re-anchor each
		// source's accuracy with the closed-form empirical-Bayes step
		// below. Registration runs inside the sweep because a
		// concurrent Observe may intern sources mid-sweep.
		var fullAgree, fullTotal []float64
		if e.learner != nil {
			fullAgree = make([]float64, n)
			fullTotal = make([]float64, n)
			for s := 0; s < n; s++ {
				for _, m := range parts {
					if s < len(m.agree) {
						fullAgree[s] += m.agree[s]
						fullTotal[s] += m.total[s]
					}
				}
			}
			names := e.sourceNames()
			e.learnMu.Lock()
			for sid := e.learner.NumSources(); sid < len(names); sid++ {
				e.learner.SetFeatures(sid, e.features[names[sid]])
			}
			e.learner.FitMass(fullAgree, fullTotal)
			e.learnMu.Unlock()
		}
		e.src.mu.Lock()
		// In online mode every registered source gets a fresh estimate
		// (zero-mass sources fall back to their feature prior).
		// Reading the learner without learnMu is safe here: mutation
		// only happens under refreshMu, which Refine holds.
		hi := n
		if e.learner != nil && len(e.src.acc) > hi {
			hi = len(e.src.acc)
		}
		for s := 0; s < hi; s++ {
			var a, t float64
			if fullAgree != nil {
				if s < n {
					a, t = fullAgree[s], fullTotal[s]
				}
			} else {
				for _, m := range parts { // shard order: deterministic
					if s < len(m.agree) {
						a += m.agree[s]
						t += m.total[s]
					}
				}
			}
			e.src.agree[s] = a
			e.src.total[s] = t
			if e.learner != nil && s < e.learner.NumSources() {
				e.src.acc[s] = e.learner.Blend(s, a, t)
			} else {
				e.src.acc[s] = smoothedAccuracy(e.opts.Options, a, t)
			}
			e.src.sigma[s] = mathx.Logit(e.src.acc[s])
		}
		e.src.epoch++
		epoch := e.src.epoch
		e.src.mu.Unlock()
		// Rescore every live object under the fresh σ and mark it
		// dirty so the drift vs. its settled mass folds in later.
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
		e.met.RefineSweeps.Inc()
		e.met.Epoch.Set(float64(epoch))
	}
	e.sinceEp.Store(0)
}

// Value returns the current MAP estimate and posterior probability for
// an object; ok is false for unknown (or evicted) objects. Ties break
// to the lexically smaller value name, as in the Fuser. Safe to call
// during ingest.
func (e *Engine) Value(objectName string) (value string, confidence float64, ok bool) {
	sh := e.shardOf(objectName)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ix, found := sh.index[objectName]
	if !found {
		return "", 0, false
	}
	return mapValue(&sh.objs[ix], e.valueNames())
}

// valueNames snapshots the value name table without holding its lock
// across caller loops: names is append-only and every published index
// is immutable, so the returned header stays valid. Capture it after
// locking a shard and it covers every value id that shard's claims
// reference (interning happens-before claim insertion).
func (e *Engine) valueNames() []string {
	e.vals.mu.RLock()
	names := e.vals.names
	e.vals.mu.RUnlock()
	return names
}

// sourceNames is the source-table analog of valueNames.
func (e *Engine) sourceNames() []string {
	e.src.mu.RLock()
	names := e.src.names
	e.src.mu.RUnlock()
	return names
}

// mapValue extracts the MAP (value name, probability) of an object.
// Caller holds the object's shard lock (read or write) and passes a
// valueNames() snapshot taken under it.
func mapValue(obj *object, valNames []string) (string, float64, bool) {
	if len(obj.post) == 0 {
		return "", 0, false
	}
	best := valNames[obj.domain[0]]
	bestP := obj.post[0]
	for i := 1; i < len(obj.domain); i++ {
		name := valNames[obj.domain[i]]
		p := obj.post[i]
		if p > bestP || (p == bestP && name < best) {
			best, bestP = name, p
		}
	}
	return best, bestP, true
}

// SourceAccuracy returns the frozen-epoch accuracy estimate for a
// source (the prior for unknown sources). Evidence from the current
// epoch is reflected after the next refresh or Refine. Safe to call
// during ingest.
func (e *Engine) SourceAccuracy(source string) float64 {
	e.src.mu.RLock()
	defer e.src.mu.RUnlock()
	if id, ok := e.src.ids[source]; ok {
		return e.src.acc[id]
	}
	return e.opts.InitAccuracy
}

// OnlineLearning reports whether the discriminative reliability
// learner is active.
func (e *Engine) OnlineLearning() bool { return e.learner != nil }

// SourceAccuracyDetail decomposes a known source's estimate in online
// mode: acc is the served accuracy (the σ-table entry), learned is the
// pure feature-model prediction, and empirical is the prior-smoothed
// cumulative agreement ratio (what a featureless engine would serve).
// ok is false for unknown sources or when online learning is off.
// Safe to call during ingest.
func (e *Engine) SourceAccuracyDetail(source string) (acc, learned, empirical float64, ok bool) {
	if e.learner == nil {
		return 0, 0, 0, false
	}
	e.src.mu.RLock()
	id, known := e.src.ids[source]
	if known {
		acc = e.src.acc[id]
		empirical = smoothedAccuracy(e.opts.Options, e.src.agree[id], e.src.total[id])
	}
	e.src.mu.RUnlock()
	if !known {
		return 0, 0, 0, false
	}
	e.learnMu.RLock()
	if id < e.learner.NumSources() {
		learned = e.learner.Predict(id)
	} else {
		// Interned but not yet registered (no refresh since): predict
		// from its configured labels alone.
		learned = e.learner.PredictLabels(e.features[source])
	}
	e.learnMu.RUnlock()
	return acc, learned, empirical, true
}

// FeatureWeights snapshots the online learner's model: the intercept
// plus every interned (label, weight) pair in intern order. ok is
// false when the engine has no online learner. Safe to call during
// ingest.
func (e *Engine) FeatureWeights() (intercept float64, feats []online.WeightedFeature, ok bool) {
	if e.learner == nil {
		return 0, nil, false
	}
	e.learnMu.RLock()
	defer e.learnMu.RUnlock()
	intercept, feats = e.learner.FeatureWeights()
	return intercept, feats, true
}

// PredictAccuracy estimates the accuracy of a source never seen on the
// stream from feature labels alone — the serving analog of
// core.Model.PredictAccuracy (Section 5.3.2). Returns the prior when
// online learning is off. Safe to call during ingest.
func (e *Engine) PredictAccuracy(labels []string) float64 {
	if e.learner == nil {
		return e.opts.InitAccuracy
	}
	e.learnMu.RLock()
	defer e.learnMu.RUnlock()
	return e.learner.PredictLabels(labels)
}

// Sources returns the known source names in sorted order. Safe to
// call during ingest.
func (e *Engine) Sources() []string {
	out := append([]string(nil), e.sourceNames()...)
	sort.Strings(out)
	return out
}

// Estimate is one live object's MAP value and its posterior
// probability.
type Estimate struct {
	Object     string
	Value      string
	Confidence float64
}

// shardEstimates snapshots one shard's live estimates under its read
// lock, sorted by object name.
func (e *Engine) shardEstimates(s int) []Estimate {
	sh := &e.shards[s]
	sh.mu.RLock()
	valNames := e.valueNames()
	out := make([]Estimate, 0, sh.nLive)
	for ix := range sh.objs {
		obj := &sh.objs[ix]
		if !obj.live {
			continue
		}
		if v, conf, ok := mapValue(obj, valNames); ok {
			out = append(out, Estimate{obj.name, v, conf})
		}
	}
	sh.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Object < out[j].Object })
	return out
}

// EstimateAll returns every live object's MAP estimate with its
// confidence, sorted by object name — one locked pass per shard, so
// callers that need both value and confidence never re-derive MAPs
// object by object. Safe to call during ingest. For huge object
// counts prefer EstimatesSeq, which never materializes the full set.
func (e *Engine) EstimateAll() []Estimate {
	parts := parallel.Map(e.nShards, e.opts.Workers, e.shardEstimates)
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	all := make([]Estimate, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Object < all[j].Object })
	return all
}

// EstimatesSeq yields every live object's estimate while holding at
// most one shard's snapshot in memory — the streaming emitter behind
// /estimates and the CLI CSV, sized for object counts where one
// all-objects map or slice would not fit. Order is shard-major with
// names sorted within each shard: deterministic for a fixed shard
// count (and so byte-stable across runs and worker counts), but not
// globally sorted the way EstimateAll is. Safe to call during ingest;
// no locks are held while the consumer runs.
func (e *Engine) EstimatesSeq() iter.Seq[Estimate] {
	return func(yield func(Estimate) bool) {
		for s := 0; s < e.nShards; s++ {
			for _, est := range e.shardEstimates(s) {
				if !yield(est) {
					return
				}
			}
		}
	}
}

// Estimates returns the MAP value of every live object. Safe to call
// during ingest (each shard is snapshotted under its read lock).
func (e *Engine) Estimates() map[string]string {
	live := 0
	for s := range e.shards {
		sh := &e.shards[s]
		sh.mu.RLock()
		live += sh.nLive
		sh.mu.RUnlock()
	}
	est := make(map[string]string, live)
	for x := range e.EstimatesSeq() {
		est[x.Object] = x.Value
	}
	return est
}

// EngineStats reports the engine's size and eviction accounting.
type EngineStats struct {
	Shards         int
	Sources        int
	Objects        int // live objects
	Observations   int64
	Epoch          int64
	EpochLength    int64 // observations per epoch; ExternalEpochLength in cluster member mode
	EvictedObjects int64
	EvictedClaims  int64
	EvictedMass    float64 // posterior agreement mass retained from evicted objects
}

// Stats snapshots the engine counters. Safe to call during ingest.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{Shards: e.nShards, Observations: e.nObs.Load(), EpochLength: e.epochLen}
	e.src.mu.RLock()
	st.Sources = len(e.src.names)
	st.Epoch = e.src.epoch
	e.src.mu.RUnlock()
	for s := range e.shards {
		sh := &e.shards[s]
		sh.mu.RLock()
		st.Objects += sh.nLive
		st.EvictedObjects += sh.evictedObjects
		st.EvictedClaims += sh.evictedClaims
		st.EvictedMass += sh.evictedMass
		sh.mu.RUnlock()
	}
	return st
}

// MarkSeq records an ingest idempotency key and reports whether it
// was new: true means the caller should ingest the batch, false means
// the key is a replay inside the dedup window and the batch has
// already been applied. The window is a bounded ring — once full, the
// oldest key is forgotten — sized by EngineOptions.DedupWindow.
func (e *Engine) MarkSeq(key string) bool {
	if key == "" {
		return true
	}
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	if _, dup := e.seqSet[key]; dup {
		return false
	}
	if len(e.seqKeys) < e.seqCap {
		e.seqKeys = append(e.seqKeys, key)
	} else {
		delete(e.seqSet, e.seqKeys[e.seqHead])
		e.seqKeys[e.seqHead] = key
		e.seqHead = (e.seqHead + 1) % e.seqCap
	}
	e.seqSet[key] = struct{}{}
	return true
}

// SeqSeen reports whether key is currently inside the dedup window
// without recording it — the fast pre-lock duplicate check.
func (e *Engine) SeqSeen(key string) bool {
	if key == "" {
		return false
	}
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	_, dup := e.seqSet[key]
	return dup
}

// seqSnapshot copies the dedup window oldest-first (the order MarkSeq
// replay must reinsert to preserve eviction order).
func (e *Engine) seqSnapshot() []string {
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	if len(e.seqKeys) < e.seqCap {
		return append([]string(nil), e.seqKeys...)
	}
	out := make([]string, 0, len(e.seqKeys))
	out = append(out, e.seqKeys[e.seqHead:]...)
	out = append(out, e.seqKeys[:e.seqHead]...)
	return out
}

// Snapshot exports the live claims as an immutable Dataset plus the
// current MAP estimates, for handing to the batch SLiMFast pipeline.
// Evicted objects are not included (their state is gone by contract).
func (e *Engine) Snapshot(name string) (*data.Dataset, data.TruthMap) {
	type row struct{ object, source, value string }
	var rows []row
	for s := range e.shards {
		sh := &e.shards[s]
		sh.mu.RLock()
		valNames := e.valueNames()
		srcNames := e.sourceNames()
		for ix := range sh.objs {
			obj := &sh.objs[ix]
			if !obj.live {
				continue
			}
			for i := range obj.claims {
				c := &obj.claims[i]
				rows = append(rows, row{obj.name, srcNames[c.src], valNames[c.val]})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].object != rows[j].object {
			return rows[i].object < rows[j].object
		}
		return rows[i].source < rows[j].source
	})
	b := data.NewBuilder(name)
	for _, r := range rows {
		b.ObserveNames(r.source, r.object, r.value)
	}
	ds := b.Freeze()
	estimates := data.TruthMap{}
	if tm, err := data.TruthFromNames(ds, e.Estimates()); err == nil {
		estimates = tm
	}
	return ds, estimates
}
