package main

import (
	"bytes"
	"math"
	"strconv"
)

// tracedQueries is how many reads of the mix the traced replay runs
// against the reference engine.
const tracedQueries = 100

// servingLayers derives the per-layer metrics of a traced serving run:
// [M] deltas between a scrape before the last read round and one after
// the window, [C] client spans, [P] CPU over the window, and [S] spans
// from a second, traced replay of the acknowledged bodies.
func servingLayers(cluster bool, d *deployment, ks *keySpace, acks []ack,
	bare replayResult, tr *tracer, scrA, scrB []scrape, cpuA, cpuB []float64, epochLen int, rep *report) error {
	traced, err := replay(ks, acks, epochLen, tr)
	if err != nil {
		return err
	}
	if !bytes.Equal(estimatesCSV(traced.eng), estimatesCSV(bare.eng)) {
		rep.fail("traced replay diverged from the untraced replay")
	}
	traceEstimatesScan(traced.eng, tr, 3)
	rows, err := traceQueries(traced.eng, ks.newGen(), tr, tracedQueries)
	if err != nil {
		return err
	}
	l := tr.layers()

	// [S] layers.
	ob := l["stream.observe_batch"]
	engineUSClaim := ratio(float64(ob.Total.Nanoseconds())/1e3, float64(traced.loadClaims))
	rep.set("stream.observe_batch_us_per_claim", engineUSClaim)
	rep.set("stream.observe_batch_allocs_per_claim", bare.allocsClaim)
	parse := l["data.parse_csv"]
	rep.set("data.parse_csv_us_per_claim", ratio(float64(parse.Total.Nanoseconds())/1e3, float64(traced.loadClaims)))
	rep.set("stream.estimates_scan_ms", ratio(float64(l["stream.estimates_scan"].Total.Nanoseconds())/1e6, 3))
	st := bare.eng.Stats()
	rep.set("stream.objects", float64(st.Objects))
	rep.set("stream.sources", float64(st.Sources))
	for _, k := range []string{"topk", "group", "point", "sources"} {
		rep.set("query.exec_us."+k, medianSelfUS(l, "query.exec."+k))
	}
	rep.set("query.write_us", medianSelfUS(l, "query.write"))
	rep.set("query.rows_out", rows)
	// Span overhead: the traced replay did the untraced one's work plus
	// spans, and re-rendered and parsed the timed bodies as CSV.
	extra := parse.Total + l["bench.encode_csv"].Total
	rep.set("trace.span_overhead_frac", math.Max(0, ratio(float64((traced.wall-extra).Nanoseconds()), float64(bare.wall.Nanoseconds()))-1))

	// [C] client phases of the timed observes.
	for _, n := range []string{"net.conn_wait", "net.write", "net.ttfb", "net.read"} {
		rep.set(n+"_us", meanSelfUS(l, n))
	}

	// [M] server deltas. pairs[k] is process k of d.all.
	pairs := make([]scrapePair, len(d.all))
	for k := range d.all {
		pairs[k] = scrapePair{scrA[k], scrB[k]}
	}
	front := pairs[len(pairs)-1] // the node, or the router
	obsN, obsS := front.route("/v1/observe")
	handlerUS := ratio(obsS*1e6, obsN)
	rep.set("http.observe_handler_us", handlerUS)
	rep.set("net.server_queue_us", math.Max(0, meanSelfUS(l, "net.ttfb")-handlerUS))
	estN, estS := front.route("/v1/estimates")
	rep.set("http.estimates_handler_us", ratio(estS*1e6, estN))
	srcN, srcS := front.route("/v1/sources")
	rep.set("http.sources_handler_us", ratio(srcS*1e6, srcN))
	var shed, timeouts float64
	for _, p := range pairs {
		shed += p.counter("slimfast_http_shed_total")
		timeouts += p.counter("slimfast_http_timeouts_total")
	}
	rep.set("http.shed", shed)
	rep.set("http.timeouts", timeouts)

	if !cluster {
		// Outside-engine time: the handler minus ObserveBatch's share.
		rep.set("http.observe_outside_engine_us", math.Max(0, handlerUS-engineUSClaim*float64(claimsPerRequest)))
		rn, rs := front.hist("slimfast_engine_epoch_refresh_seconds")
		rep.set("stream.refresh_ms", ratio(rs*1e3, rn))
		rep.set("stream.refreshes", rn)
		return nil
	}

	// Cluster: members are pairs[0..1], the router the last.
	var memObsN, memObsS, epochS, ckptN, ckptS, ckptWN, ckptWS, ckptBytes float64
	for k := range d.members {
		p := pairs[k]
		n, s := p.route("/v1/observe")
		memObsN += n
		memObsS += s
		_, ds := p.route("/v1/epoch/drain")
		_, as := p.route("/v1/epoch/apply")
		epochS += ds + as
		n, s = p.route("/v1/checkpoint")
		ckptN += n
		ckptS += s
		n, s = p.hist("slimfast_checkpoint_write_seconds")
		ckptWN += n
		ckptWS += s
		ckptBytes += scrB[k].val("slimfast_checkpoint_last_bytes", "slimfast_checkpoint_last_bytes", nil)
	}
	routerClaims := front.counter("slimfast_router_claims_total")
	rep.set("http.observe_outside_engine_us", math.Max(0, ratio(memObsS*1e6-engineUSClaim*routerClaims, memObsN)))
	rep.set("stream.refresh_ms", 0) // members never refresh locally; barriers replace refreshes
	rep.set("stream.refreshes", 0)
	rep.set("stream.checkpoint_ms", ratio(ckptWS*1e3, ckptWN))
	rep.set("stream.checkpoint_bytes", ckptBytes)

	const fan = "slimfast_router_fanout_seconds"
	fanN := front.delta(fan, fan+"_count", nil)
	fanS := front.delta(fan, fan+"_sum", nil)
	rep.set("cluster.fanout_us", ratio(fanS*1e6, fanN))
	lo, hi := math.Inf(1), 0.0
	for k := range d.members {
		n := front.delta("slimfast_router_fanout_requests_total", "slimfast_router_fanout_requests_total",
			map[string]string{"partition": strconv.Itoa(k)})
		lo, hi = math.Min(lo, n), math.Max(hi, n)
	}
	rep.set("cluster.fanout_skew", ratio(hi, lo))
	barriers := front.counter("slimfast_router_barriers_total")
	rep.set("cluster.barriers", barriers)
	rep.set("cluster.retries", front.counter("slimfast_router_retries"))
	rep.set("cluster.barrier_us", ratio(epochS*1e6, barriers))
	rep.set("cluster.checkpoint_us", ratio(ckptS*1e6, ckptN))
	rep.set("cluster.router_self_us", math.Max(0, ratio((obsS-fanS-epochS-ckptS)*1e6, obsN)))

	// [P] the router's share of the servers' CPU over the window.
	router := len(d.all) - 1
	rep.set("proc.router_cpu_share", ratio(cpuB[router]-cpuA[router], sum(cpuB)-sum(cpuA)))
	return nil
}
