package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// Load shape of the serving workloads.
const (
	loadWorkers = 2 // = nproc of the reference host; one connection each
	warmup      = 1500 * time.Millisecond
	// setupRepeats deployments are set up per run; after each preload
	// one read round runs readsPerRound closed-loop reads of the mix
	// and estimatesPerRound plain GET /v1/estimates.
	setupRepeats      = 7
	readsPerRound     = 200
	estimatesPerRound = 6
	// sliceSeconds cuts the measured window into slices whose medians
	// are reported.
	sliceSeconds = 2
	// accuracyBodies timed bodies follow the preload in the fixed input
	// fuse_accuracy is scored on: with the preload's one claim per
	// object they give about 6 claims per object, Demos' ObsPerObject.
	accuracyBodies = 5 * numObjects / claimsPerRequest
)

// deployment is the set of processes one setup started.
type deployment struct {
	all     []*server
	front   *server   // what clients talk to
	router  *server   // nil for a single node
	members []*server // cluster members
	clients []*client // one per load worker
}

func (d *deployment) stop() error {
	for _, c := range d.clients {
		c.close()
	}
	// Router first, so no fan-out reaches a member that is already
	// writing its shutdown checkpoint.
	if d.router != nil {
		if err := d.router.stop(); err != nil {
			stopAll(d.members)
			return err
		}
		return stopAll(d.members)
	}
	return stopAll(d.all)
}

// deploy starts the processes of one serving workload in dir: one
// node, or with cluster a router in front of 2 members.
func deploy(cfg runConfig, cluster bool, dir string, tr *tracer) (*deployment, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{}
	for w := 0; w < loadWorkers; w++ {
		d.clients = append(d.clients, newClient(tr))
	}
	if !cluster {
		s, err := startServer("node", cfg.bin, filepath.Join(dir, "node.log"),
			"stream", "-listen", "127.0.0.1:0", "-shards", "2", "-workers", "2")
		if err != nil {
			return nil, err
		}
		d.all, d.front = []*server{s}, s
		return d, nil
	}
	var urls []string
	for k := 0; k < 2; k++ {
		s, err := startServer("member"+strconv.Itoa(k), cfg.bin, filepath.Join(dir, fmt.Sprintf("member%d.log", k)),
			"stream", "-listen", "127.0.0.1:0", "-shards", "1", "-workers", "2", "-external-epochs",
			"-checkpoint", filepath.Join(dir, fmt.Sprintf("member%d.ckpt", k)))
		if err != nil {
			stopAll(d.members)
			return nil, err
		}
		d.members = append(d.members, s)
		urls = append(urls, s.url())
	}
	r, err := startServer("router", cfg.bin, filepath.Join(dir, "router.log"),
		"router", "-listen", "127.0.0.1:0", "-nodes", urls[0]+","+urls[1],
		"-epoch", "1024", "-checkpoint-epochs", "4", "-manifest", filepath.Join(dir, "cluster.json"))
	if err != nil {
		stopAll(d.members)
		return nil, err
	}
	d.router, d.front = r, r
	d.all = append(append([]*server{}, d.members...), r)
	return d, nil
}

// ackLog collects acknowledgements from concurrent workers.
type ackLog struct {
	mu   sync.Mutex
	acks []ack
}

func (l *ackLog) add(a ack) {
	l.mu.Lock()
	l.acks = append(l.acks, a)
	l.mu.Unlock()
}

// observe posts body (phase, i) through client c and logs its ack.
func observe(c *client, g *gen, front string, phase uint64, i int64, log *ackLog, seed int64) (int, error) {
	claims := g.body(nil, phase, i)
	var body bytes.Buffer
	encodeNDJSON(&body, claims)
	op := "observe"
	if phase == phasePreload {
		op = "preload"
	}
	seq := fmt.Sprintf("bench-%d-%d-%d", seed, phase, i)
	resp, err := c.do(op, "POST", front+"/v1/observe", "application/x-ndjson", seq, body.Bytes(), i)
	if err != nil {
		return 0, err
	}
	n, err := ingestAck(resp)
	if err != nil {
		return 0, err
	}
	log.add(ack{phase: phase, i: i, count: n})
	return len(claims), nil
}

// preload sends every preload body over the deployment's connections.
func preload(d *deployment, ks *keySpace, log *ackLog, seed int64) error {
	n := preloadBodies()
	gens := []*gen{ks.newGen(), ks.newGen()}
	ss := closedLoop(loadWorkers, count(n), func(w int, i int64) (int, error) {
		return observe(d.clients[w], gens[w], d.front.url(), phasePreload, i, log, seed)
	})
	for _, s := range ss {
		if s.err != nil {
			return fmt.Errorf("preload: %w", s.err)
		}
	}
	return nil
}

// readQuery runs read i of the mix through client c.
func readQuery(c *client, g *gen, front string, i int64) (int, error) {
	_, route, vals := g.queryPath(i)
	_, err := c.do("query", "GET", front+route+"?"+vals.Encode(), "", "", nil, i)
	return 0, err
}

// runServing runs node-ingest or, with cluster, cluster-ingest.
func runServing(cfg runConfig, cluster bool, rep *report) error {
	ks := newKeySpace(cfg.seed)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	dir := filepath.Join(cfg.work, cfg.workload)

	// Set-up: start the processes and preload the key space, several
	// times; the last deployment is the one measured. After each
	// preload, one read round measures reads against the preloaded
	// state: its cost then does not depend on how much the window
	// ingests, and the rounds sample the host over the whole set-up
	// rather than one short stretch.
	var setups []float64
	var scrA []scrape
	var d *deployment
	var acks *ackLog
	reads := &readStats{}
	for k := 0; k < setupRepeats; k++ {
		acks = &ackLog{}
		t0 := time.Now()
		var err error
		if d, err = deploy(cfg, cluster, filepath.Join(dir, fmt.Sprintf("setup%d", k)), tr); err != nil {
			return err
		}
		if err := preload(d, ks, acks, cfg.seed); err != nil {
			d.stop()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if tr != nil && k == setupRepeats-1 {
			// The traced run's [M] deltas start here, so they cover the
			// last read round as well as the window.
			if scrA, err = scrapeAll(d.all); err != nil {
				d.stop()
				return err
			}
		}
		if err := readRound(d, ks, int64(k), reads, rep); err != nil {
			d.stop()
			return err
		}
		if k < setupRepeats-1 {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	defer d.stop()
	rep.set("setup_s", median(setups))
	rep.attempted += preloadBodies() * setupRepeats
	front := d.front.url()
	reads.report(rep)

	// The timed load: warm-up, then the window, cut into slices. The
	// servers' CPU and memory are sampled at every slice boundary.
	nSlices := max(1, cfg.seconds/sliceSeconds)
	slice := time.Duration(cfg.seconds) * time.Second / time.Duration(nSlices)
	start := time.Now()
	ws := start.Add(warmup)
	we := ws.Add(slice * time.Duration(nSlices))
	procs := make([]procSample, nSlices+1)
	sampled := make(chan error, 1)
	go func() { sampled <- sampleProcs(d.all, ws, slice, procs) }()

	gens := []*gen{ks.newGen(), ks.newGen()}
	ingest := closedLoop(loadWorkers, until(we), func(w int, i int64) (int, error) {
		return observe(d.clients[w], gens[w], front, phaseIngest, i, acks, cfg.seed)
	})
	if err := <-sampled; err != nil {
		return err
	}
	var scrB []scrape
	if tr != nil {
		var err error
		if scrB, err = scrapeAll(d.all); err != nil {
			return err
		}
	}
	rep.attempted += int64(len(ingest))
	rep.failed += failures(ingest)

	// Per-slice throughput, CPU per request and memory; each reported
	// as its median over the slices, so a burst of interference from
	// outside the benchmark moves one slice, not the result.
	var tput, cpuReq, rss []float64
	for k := 0; k < nSlices; k++ {
		// A slice runs between two actual samples, so the CPU delta and
		// the completed requests cover the same interval.
		from, to := procs[k].at, procs[k+1].at
		var reqs, claims int64
		for _, s := range ingest {
			if s.err == nil && !s.done.Before(from) && s.done.Before(to) {
				reqs++
				claims += int64(s.claims)
			}
		}
		tput = append(tput, float64(claims)/to.Sub(from).Seconds())
		cpuReq = append(cpuReq, ratio((sum(procs[k+1].cpu)-sum(procs[k].cpu))*1e6, float64(reqs)))
		rss = append(rss, sum(procs[k+1].rss))
	}
	rep.set("claims_per_s", median(tput))
	rep.notes["claims_per_s"] = fmt.Sprintf("median over %d slices of %v; slowest %.0f, fastest %.0f", nSlices, slice, minOf(tput), maxOf(tput))
	rep.set("server_cpu_us_per_req", median(cpuReq))
	rep.set("server_rss_mb", median(rss))

	// Latency percentiles, likewise per slice.
	if err := slicedPercentiles(rep, "ingest", ingest, ws, slice, nSlices); err != nil {
		return err
	}
	rep.set("gen.ingest_samples", float64(len(window(ingest, ws, we))))

	// The fused table after the load, for the reference check.
	est, err := d.clients[0].do("estimates", "GET", front+"/v1/estimates", "", "", nil, 0)
	rep.attempted++
	if err != nil {
		rep.failed++
		return fmt.Errorf("final estimates: %w", err)
	}
	src, err := d.clients[0].do("sources", "GET", front+"/v1/sources", "", "", nil, 0)
	rep.attempted++
	if err != nil {
		rep.failed++
		return fmt.Errorf("final sources: %w", err)
	}
	// Failures the client cannot see: members shedding or timing out
	// behind the router, and router retries that hid them.
	end, err := scrapeAll(d.all)
	if err != nil {
		return err
	}
	for k := range d.members {
		rep.failed += int64(end[k].val("slimfast_http_shed_total", "slimfast_http_shed_total", nil) +
			end[k].val("slimfast_http_timeouts_total", "slimfast_http_timeouts_total", nil))
	}
	if d.router != nil {
		rep.failed += int64(end[len(end)-1].val("slimfast_router_retries", "slimfast_router_retries", nil))
	}
	if err := d.stop(); err != nil {
		return err
	}
	rep.set("ok_frac", 1-ratio(float64(rep.failed), float64(rep.attempted)))

	// Reference check: replay the acknowledged bodies in the order the
	// server applied them and compare the served bytes.
	epochLen := 0
	if cluster {
		epochLen = 1024 // the router's -epoch
	}
	acc, err := fixedAccuracy(ks, epochLen)
	if err != nil {
		return err
	}
	rep.set("fuse_accuracy", acc)
	all := acks.acks
	if err := orderAcks(all); err != nil {
		rep.fail("%v", err)
		return nil
	}
	ref, err := replay(ks, all, epochLen, nil)
	if err != nil {
		return err
	}
	if want := estimatesCSV(ref.eng); !bytes.Equal(est, want) {
		rep.fail("served /v1/estimates (%d bytes) differs from the in-process replay (%d bytes)", len(est), len(want))
	}
	if want := sourcesCSV(ref.eng); !bytes.Equal(src, want) {
		rep.fail("served /v1/sources differs from the in-process replay")
	}
	if tr == nil {
		return nil
	}
	if err := servingLayers(cluster, d, ks, all, ref, tr, scrA, scrB, procs[0].cpu, procs[nSlices].cpu, epochLen, rep); err != nil {
		return err
	}
	return tr.write(filepath.Join(cfg.work, cfg.workload+".spans.jsonl"))
}

// readStats accumulates the read rounds of one run.
type readStats struct {
	ps     [3][]float64 // per-round p50, p90, p99
	passes []float64
	last   pctResult
}

// readRound runs read round r against deployment d: readsPerRound
// closed-loop reads of the mix, then estimatesPerRound full reads of the
// fused table, which must agree with each other.
func readRound(d *deployment, ks *keySpace, r int64, st *readStats, rep *report) error {
	front := d.front.url()
	gens := []*gen{ks.newGen(), ks.newGen()}
	ss := closedLoop(loadWorkers, count(readsPerRound), func(w int, i int64) (int, error) {
		return readQuery(d.clients[w], gens[w], front, r*readsPerRound+i)
	})
	rep.attempted += int64(len(ss))
	rep.failed += failures(ss)
	for j, want := range tailPcts {
		p, err := percentile(latenciesMS(ss), want)
		if err != nil {
			return fmt.Errorf("query latency: %w", err)
		}
		st.ps[j], st.last = append(st.ps[j], p.Value), p
	}
	var first []byte
	for k := 0; k < estimatesPerRound; k++ {
		t0 := time.Now()
		body, err := d.clients[0].do("estimates", "GET", front+"/v1/estimates", "", "", nil, int64(k))
		st.passes = append(st.passes, time.Since(t0).Seconds())
		rep.attempted++
		if err != nil {
			rep.failed++
			return fmt.Errorf("estimates: %w", err)
		}
		if first != nil && !bytes.Equal(first, body) {
			rep.fail("two reads of /v1/estimates with no ingest between them differ")
		}
		first = body
	}
	return nil
}

// report sets fuse_s and the query latencies: the median over rounds
// of each round's percentiles.
func (st *readStats) report(rep *report) {
	rep.set("fuse_s", median(st.passes))
	setTails(rep, "query", st.ps)
	note := fmt.Sprintf("median over %d rounds of %d reads", len(st.ps[0]), readsPerRound)
	rep.notes["query_p50_ms"] = note
	rep.notes["query_p90_ms"] = note
	rep.notes["gen.query_p99_ms"] = fmt.Sprintf("%s; last round p%.2f", note, st.last.Pct)
	rep.set("gen.query_samples", float64(len(st.ps[0])*readsPerRound))
}

// scrapeAll scrapes every process, in deployment order.
func scrapeAll(ss []*server) ([]scrape, error) {
	c := newClient(nil)
	defer c.close()
	out := make([]scrape, len(ss))
	for k, s := range ss {
		sc, err := scrapeMetrics(c, s.url())
		if err != nil {
			return nil, err
		}
		out[k] = sc
	}
	return out, nil
}

// fixedAccuracy scores fusion on an input fixed by the seed alone: the
// preload and the first accuracyBodies timed bodies, in body order,
// replayed into a reference engine with the workload's epoch length.
// The reference check ties that engine's fusion to the server's, and
// the score does not depend on how much the window ingested.
func fixedAccuracy(ks *keySpace, epochLen int) (float64, error) {
	var acks []ack
	for i := int64(0); i < preloadBodies(); i++ {
		acks = append(acks, ack{phase: phasePreload, i: i})
	}
	for i := int64(0); i < accuracyBodies; i++ {
		acks = append(acks, ack{phase: phaseIngest, i: i})
	}
	res, err := replay(ks, acks, epochLen, nil)
	if err != nil {
		return 0, err
	}
	return servedAccuracy(estimatesCSV(res.eng), ks)
}

// servedAccuracy is the share of objects whose estimate in a plain
// /v1/estimates body is the generator's hidden true value.
func servedAccuracy(est []byte, ks *keySpace) (float64, error) {
	rows, err := csv.NewReader(bytes.NewReader(est)).ReadAll()
	if err != nil {
		return 0, fmt.Errorf("parsing served estimates: %w", err)
	}
	right, total := 0, 0
	for _, r := range rows[1:] {
		o, ok := ks.index[r[0]]
		if !ok || len(r) < 2 {
			return 0, fmt.Errorf("served estimates name unknown object %q", r[0])
		}
		total++
		if r[1] == ks.values[ks.truth[o]] {
			right++
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("served estimates are empty")
	}
	return float64(right) / float64(total), nil
}

// slicedPercentiles sets <kind>_p50_ms, <kind>_p90_ms and
// gen.<kind>_p99_ms to the median, over n slices of length d from ws,
// of each slice's percentiles of the samples sent in it.
func slicedPercentiles(rep *report, kind string, ss []sample, ws time.Time, d time.Duration, n int) error {
	var ps [3][]float64
	var last pctResult
	for k := 0; k < n; k++ {
		lat := latenciesMS(window(ss, ws.Add(time.Duration(k)*d), ws.Add(time.Duration(k+1)*d)))
		for j, want := range tailPcts {
			p, err := percentile(lat, want)
			if err != nil {
				return fmt.Errorf("%s latency in slice %d: %w", kind, k, err)
			}
			ps[j], last = append(ps[j], p.Value), p
		}
	}
	setTails(rep, kind, ps)
	note := fmt.Sprintf("median over %d slices of %v", n, d)
	rep.notes[kind+"_p50_ms"] = note
	rep.notes[kind+"_p90_ms"] = note
	rep.notes["gen."+kind+"_p99_ms"] = fmt.Sprintf("%s; last slice p%.2f of %d samples", note, last.Pct, last.N)
	return nil
}

// tailPcts are the latency percentiles reported: p50 and p90 end to
// end, p99 per layer.
var tailPcts = [3]float64{50, 90, 99}

// setTails sets the medians of per-slice (or per-round) p50, p90 and
// p99 values of kind ("ingest" or "query").
func setTails(rep *report, kind string, ps [3][]float64) {
	rep.set(kind+"_p50_ms", median(ps[0]))
	rep.set(kind+"_p90_ms", median(ps[1]))
	rep.set("gen."+kind+"_p99_ms", median(ps[2]))
}
