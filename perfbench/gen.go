package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"

	"slimfast/internal/stream"
)

// Key-space shape. 50k objects × 200 sources × 4 values keeps the
// engine's per-object state well beyond CPU caches; 4 values make every
// object contestable. The claim mix follows the repo's calibrated
// simulator of the paper's Demos dataset (internal/synth, Demos), the
// one with many sources and few claims per object:
//
//   - sources are drawn Zipf(0.7) per claim, Demos' SourceSkew under
//     its SkewedSources assignment, with weight (rank+1)^-0.7 as in
//     randx.Zipf; the skew of the key space is on sources;
//   - objects are drawn uniformly: the simulators give every object the
//     same number of claims, and nothing in the repo measures an object
//     skew, so every object is equally hot and the whole table is the
//     working set;
//   - source accuracies have Demos' mean 0.604 and spread 0.16, clamped
//     to its [0.2, 0.95].
const (
	numObjects     = 50_000
	numSources     = 200
	numValues      = 4
	sourceSkew     = 0.7
	meanAccuracy   = 0.604
	accuracySpread = 0.16
	minAccuracy    = 0.2
	maxAccuracy    = 0.95

	claimsPerRequest = 64   // one /v1/observe body in the timed loops
	preloadBody      = 1024 // claims per preload request
	serverBatch      = 1024 // the node's and router's default -batch
)

// Phases seed independent claim streams from one --seed.
const (
	phasePreload uint64 = iota + 1
	phaseIngest
	phaseQuery
)

// keySpace is the immutable world the claims are drawn from: names,
// hidden true values and source accuracies. Triples reference these
// strings, so generating a claim allocates nothing.
type keySpace struct {
	seed    uint64
	objects []string
	sources []string
	values  []string
	truth   []uint8   // true value index per object
	acc     []float64 // accuracy per source
	cdf     []float64 // cumulative source popularity, by rank
	rank    []int     // source index of each popularity rank
	index   map[string]int
}

func newKeySpace(seed int64) *keySpace {
	ks := &keySpace{seed: uint64(seed), index: make(map[string]int, numObjects)}
	r := rand.New(rand.NewPCG(ks.seed, 0x5eed))
	ks.objects = make([]string, numObjects)
	for o := range ks.objects {
		ks.objects[o] = fmt.Sprintf("o%06d", o)
		ks.index[ks.objects[o]] = o
	}
	// Accuracies are the quantiles (k+0.5)/n of a normal with Demos'
	// mean and spread. Which quantile goes with which popularity rank is
	// one fixed shuffle, the same for every seed, so every seed fuses an
	// equally hard mix; the seed deals the ranks to source names.
	quantile := rand.New(rand.NewPCG(1, 0x5eed)).Perm(numSources)
	ks.rank = r.Perm(numSources)
	ks.acc = make([]float64, numSources)
	for k, s := range ks.rank {
		q := (float64(quantile[k]) + 0.5) / numSources
		a := meanAccuracy + accuracySpread*math.Sqrt2*math.Erfinv(2*q-1)
		ks.acc[s] = min(max(a, minAccuracy), maxAccuracy)
	}
	for s := 0; s < numSources; s++ {
		ks.sources = append(ks.sources, fmt.Sprintf("s%03d", s))
	}
	for v := 0; v < numValues; v++ {
		ks.values = append(ks.values, fmt.Sprintf("v%d", v))
	}
	ks.truth = make([]uint8, numObjects)
	for o := range ks.truth {
		ks.truth[o] = uint8(r.IntN(numValues))
	}
	ks.cdf = make([]float64, numSources)
	total := 0.0
	for k := range ks.cdf {
		total += math.Pow(float64(k+1), -sourceSkew)
		ks.cdf[k] = total
	}
	for k := range ks.cdf {
		ks.cdf[k] /= total
	}
	return ks
}

// gen draws claims from a keySpace. Body i of a phase depends only on
// (seed, phase, i), so any worker can make any body and the replay can
// remake it. A gen is not safe for concurrent use; give each goroutine
// its own.
type gen struct {
	ks  *keySpace
	pcg *rand.PCG
	r   *rand.Rand
}

func (ks *keySpace) newGen() *gen {
	pcg := rand.NewPCG(0, 0)
	return &gen{ks: ks, pcg: pcg, r: rand.New(pcg)}
}

func (g *gen) reseed(phase uint64, i int64) {
	g.pcg.Seed(g.ks.seed^(phase*0x9E3779B97F4A7C15), uint64(i))
}

// claim draws one claim about object o: the true value with the
// source's accuracy, otherwise one of the other values.
func (g *gen) claim(o, s int) stream.Triple {
	ks := g.ks
	v := int(ks.truth[o])
	if g.r.Float64() >= ks.acc[s] {
		v = (v + 1 + g.r.IntN(numValues-1)) % numValues
	}
	return stream.Triple{Source: ks.sources[s], Object: ks.objects[o], Value: ks.values[v]}
}

// pickSource draws a source by popularity.
func (g *gen) pickSource() int {
	k := min(sort.SearchFloat64s(g.ks.cdf, g.r.Float64()), numSources-1)
	return g.ks.rank[k]
}

// body appends the claims of body i of phase to dst.
func (g *gen) body(dst []stream.Triple, phase uint64, i int64) []stream.Triple {
	g.reseed(phase, i)
	if phase == phasePreload {
		// Preload touches every object once, in order.
		lo := int(i) * preloadBody
		for o := lo; o < min(lo+preloadBody, numObjects); o++ {
			dst = append(dst, g.claim(o, g.pickSource()))
		}
		return dst
	}
	for k := 0; k < claimsPerRequest; k++ {
		dst = append(dst, g.claim(g.r.IntN(numObjects), g.pickSource()))
	}
	return dst
}

// preloadBodies is how many preload requests cover the key space.
func preloadBodies() int64 { return (numObjects + preloadBody - 1) / preloadBody }

// encodeNDJSON renders claims as the node's NDJSON ingest body. Names
// are plain alphanumerics, so no escaping is needed.
func encodeNDJSON(buf *bytes.Buffer, claims []stream.Triple) {
	buf.Reset()
	for _, c := range claims {
		buf.WriteString(`{"source":"`)
		buf.WriteString(c.Source)
		buf.WriteString(`","object":"`)
		buf.WriteString(c.Object)
		buf.WriteString(`","value":"`)
		buf.WriteString(c.Value)
		buf.WriteString("\"}\n")
	}
}

// encodeCSV renders claims as a text/csv ingest body with a header.
func encodeCSV(buf *bytes.Buffer, claims []stream.Triple) {
	buf.Reset()
	buf.WriteString("source,object,value\n")
	for _, c := range claims {
		buf.WriteString(c.Source)
		buf.WriteByte(',')
		buf.WriteString(c.Object)
		buf.WriteByte(',')
		buf.WriteString(c.Value)
		buf.WriteByte('\n')
	}
}

// queryKinds is the read mix, in rotation order. Point lookups take
// two slots of five, so the median read is a point lookup rather than
// the boundary between two kinds of very different cost.
var queryKinds = []string{"point", "topk", "point", "group", "sources"}

// queryPath builds read i of the mix: its kind, route and parameters.
// The point lookup names an object drawn like a claim's.
func (g *gen) queryPath(i int64) (kind, route string, vals url.Values) {
	kind = queryKinds[i%int64(len(queryKinds))]
	switch kind {
	case "topk":
		return kind, "/v1/estimates", url.Values{"where": {"contested>0.5"}, "order": {"-contested"}, "limit": {"20"}}
	case "group":
		return kind, "/v1/estimates", url.Values{"group": {"value"}, "agg": {"count,avg:confidence"}}
	case "point":
		g.reseed(phaseQuery, i)
		return kind, "/v1/estimates", url.Values{"where": {"object=" + g.ks.objects[g.r.IntN(numObjects)]}}
	default:
		return kind, "/v1/sources", url.Values{"order": {"-accuracy"}, "limit": {"20"}}
	}
}
