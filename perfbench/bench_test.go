package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"slimfast/internal/data"
	"slimfast/internal/synth"
)

// renderBodies renders the first bodies of every phase for seed.
func renderBodies(seed int64) []byte {
	g := newKeySpace(seed).newGen()
	var out, buf bytes.Buffer
	for _, phase := range []uint64{phasePreload, phaseIngest} {
		for i := int64(0); i < 3; i++ {
			claims := g.body(nil, phase, i)
			encodeNDJSON(&buf, claims)
			out.Write(buf.Bytes())
			encodeCSV(&buf, claims)
			out.Write(buf.Bytes())
		}
	}
	for i := int64(0); i < 10; i++ {
		_, route, vals := g.queryPath(i)
		out.WriteString(route + "?" + vals.Encode() + "\n")
	}
	return out.Bytes()
}

func TestSameSeedSameBodies(t *testing.T) {
	a, b := renderBodies(7), renderBodies(7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 rendered different bodies on two tries")
	}
	if bytes.Equal(a, renderBodies(8)) {
		t.Fatal("seeds 7 and 8 rendered the same bodies")
	}
	// A body does not depend on which generator made it or what it made
	// before: the replay remakes bodies out of order.
	ks := newKeySpace(7)
	g1, g2 := ks.newGen(), ks.newGen()
	g2.body(nil, phaseIngest, 41)
	x, y := g1.body(nil, phaseIngest, 5), g2.body(nil, phaseIngest, 5)
	for k := range x {
		if x[k] != y[k] {
			t.Fatalf("claim %d of body 5 differs between generators: %v vs %v", k, x[k], y[k])
		}
	}
}

func TestSameSeedSameDatasets(t *testing.T) {
	render := func(seed int64) []byte {
		var buf bytes.Buffer
		for _, name := range fuseDatasets {
			inst, err := synth.NamedDataset(name, datasetSeed)
			if err != nil {
				t.Fatal(err)
			}
			if err := data.WriteObservationsCSV(&buf, inst.Dataset); err != nil {
				t.Fatal(err)
			}
			for _, frac := range fuseFractions {
				train, _ := data.Split(inst.Gold, frac, splitRNG(seed, name, frac))
				if err := data.WriteTruthCSV(&buf, inst.Dataset, train); err != nil {
					t.Fatal(err)
				}
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(3), render(3)) {
		t.Fatal("seed 3 generated different datasets or splits on two tries")
	}
	if bytes.Equal(render(3), render(4)) {
		t.Fatal("seeds 3 and 4 drew the same splits")
	}
}

func TestPercentileLeavesTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		want     float64
		pct, val float64
	}{
		{1000, 99, 99, 990},  // enough samples: the percentile asked for
		{500, 99, 98, 490},   // p99 would leave 5 beyond: walk down to p98
		{2000, 99, 99, 1980}, // 20 beyond p99
		{20, 50, 50, 10},     // exactly ten beyond the median
		{15, 50, 100.0 / 3, 5},
	} {
		p, err := percentile(seq(c.n), c.want)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if p.Pct != c.pct || p.Value != c.val || p.N != c.n {
			t.Errorf("n=%d p%v: got p%v=%v (N=%d), want p%v=%v", c.n, c.want, p.Pct, p.Value, p.N, c.pct, c.val)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > p.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported p%v", c.n, beyond, p.Pct)
		}
	}
	if _, err := percentile(seq(10), 50); err == nil {
		t.Error("10 samples gave a percentile; none can leave ten beyond it")
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", d.Name)
		}
		if !unitName.MatchString(d.Unit) {
			t.Errorf("metric %s has no valid unit (%q)", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not run", w.Name)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("parent", -1, 1, at(0), at(10))
	tr.record("child", root, 1, at(1), at(3))
	tr.record("child", root, 1, at(2), at(5)) // overlaps the first
	tr.record("child", root, 1, at(7), at(8))
	tr.record("child", root, 1, at(9), at(12)) // runs past the parent
	l := tr.layers()
	if got, want := l["parent"].Self, 4*time.Millisecond; got != want {
		t.Errorf("parent self time %v, want %v (10ms minus the 6ms its children cover)", got, want)
	}
	if got := l["child"].Count; got != 4 {
		t.Errorf("%d child spans, want 4", got)
	}
}

func TestOrderAcksCatchesMissingBody(t *testing.T) {
	acks := []ack{
		{phaseIngest, 1, preloadBody + 2*claimsPerRequest},
		{phasePreload, 0, preloadBody},
		{phaseIngest, 0, preloadBody + claimsPerRequest},
	}
	if err := orderAcks(acks); err != nil {
		t.Fatalf("complete acks rejected: %v", err)
	}
	if acks[0].phase != phasePreload || acks[2].i != 1 {
		t.Fatalf("acks not in applied order: %+v", acks)
	}
	gap := []ack{{phasePreload, 0, preloadBody}, {phaseIngest, 1, preloadBody + 2*claimsPerRequest}}
	if err := orderAcks(gap); err == nil {
		t.Fatal("a body the server applied but the client never saw acknowledged went unnoticed")
	}
}
