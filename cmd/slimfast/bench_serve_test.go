// End-to-end serving benchmark: the paper's "fusion as a service"
// story measured where users actually live — real HTTP requests
// through the node server's handler(), not engine method calls. The
// sub-benchmarks drive POST /observe (NDJSON ingest batches) and
// GET /estimates (the full live-estimate dump) under concurrent load
// and report requests/sec and p99 latency alongside the standard
// ns/op, B/op and allocs/op columns; scripts/bench.sh records all of
// them in the BENCH_N.json snapshot and the benchdiff CI gate holds
// the allocs/op line flat, giving the HTTP layer the same regression
// protection the kernels have.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slimfast/internal/cluster"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// benchCorpus builds a deterministic claim stream: nObj objects, each
// claimed by a rotating window of sources, with values alternating per
// pass so steady-state re-claims exercise the engine's delta path.
func benchCorpus(nSources, nObj, perObj int, pass int) []stream.Triple {
	out := make([]stream.Triple, 0, nObj*perObj)
	for o := 0; o < nObj; o++ {
		for k := 0; k < perObj; k++ {
			s := (o*perObj + k*7) % nSources
			v := (o + k%3 + pass) % 3
			out = append(out, stream.Triple{
				Source: fmt.Sprintf("s%03d", s),
				Object: fmt.Sprintf("o%04d", o),
				Value:  fmt.Sprintf("v%d", v),
			})
		}
	}
	return out
}

// ndjsonBodies renders the corpus as ready-to-send NDJSON request
// bodies of batch claims each, so the benchmark measures serving cost,
// not client-side formatting.
func ndjsonBodies(corpus []stream.Triple, batch int) [][]byte {
	var bodies [][]byte
	for lo := 0; lo < len(corpus); lo += batch {
		hi := lo + batch
		if hi > len(corpus) {
			hi = len(corpus)
		}
		var buf bytes.Buffer
		for _, tr := range corpus[lo:hi] {
			fmt.Fprintf(&buf, "{\"source\":%q,\"object\":%q,\"value\":%q}\n", tr.Source, tr.Object, tr.Value)
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies
}

// benchServer boots the HTTP serving stack over a fresh engine,
// pre-warmed with two full passes of the corpus (interning, slab
// growth and the first epoch refreshes happen here, not in the timed
// region) and returns the base URL plus a keep-alive client sized for
// the concurrent load.
func benchServer(b *testing.B) (*httptest.Server, *http.Client) {
	b.Helper()
	opts := stream.DefaultEngineOptions()
	opts.Shards = 4
	opts.Workers = 1
	eng, err := stream.NewEngine(opts)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(newStreamServer(eng, serveConfig{Batch: 256}, io.Discard).handler())
	b.Cleanup(srv.Close)
	for pass := 0; pass < 2; pass++ {
		eng.ObserveBatch(benchCorpus(64, 512, 8, pass))
	}
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	b.Cleanup(tr.CloseIdleConnections)
	return srv, &http.Client{Transport: tr}
}

// driveConcurrent runs one HTTP request per benchmark op across
// parallel goroutines, then reports throughput (req/s) and tail
// latency (p99-ns) next to the standard per-op columns.
func driveConcurrent(b *testing.B, do func(i int) (*http.Response, error)) {
	var mu sync.Mutex
	var lats []time.Duration
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 1024)
		i := 0
		for pb.Next() {
			start := time.Now()
			resp, err := do(i)
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
			local = append(local, time.Since(start))
			i++
		}
		mu.Lock()
		lats = append(lats, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[(len(lats)*99)/100]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeHTTP is the end-to-end serving benchmark. One op of
// the observe sub-benchmark is one POST /observe carrying a 64-claim
// NDJSON batch (cycling a fixed corpus, values alternating between
// passes); one op of the estimates sub-benchmark is one GET /estimates
// returning the full 512-object CSV dump. GOMAXPROCS parallel clients
// drive the server concurrently over keep-alive connections.
func BenchmarkServeHTTP(b *testing.B) {
	b.Run("observe", func(b *testing.B) {
		srv, client := benchServer(b)
		url := srv.URL + "/v1/observe"
		var bodies [][]byte
		for pass := 0; pass < 2; pass++ {
			bodies = append(bodies, ndjsonBodies(benchCorpus(64, 512, 8, pass), 64)...)
		}
		driveConcurrent(b, func(i int) (*http.Response, error) {
			return client.Post(url, "application/x-ndjson", bytes.NewReader(bodies[i%len(bodies)]))
		})
	})
	b.Run("estimates", func(b *testing.B) {
		srv, client := benchServer(b)
		url := srv.URL + "/v1/estimates"
		driveConcurrent(b, func(i int) (*http.Response, error) {
			return client.Get(url)
		})
	})
}

// BenchmarkClusterIngest drives the router end to end over 1, 2 and 4
// in-process members, in the geometry of `slimfast router`'s
// production defaults: 1024-claim chunks and epochs, a cluster
// checkpoint (every member writes a generation, then the manifest)
// every 4 barriers. Members are single-shard, externally coordinated
// engines behind the real node handler, each pre-warmed with its share
// of a 4,096-object corpus. One op is one POST /observe of a 64-claim
// NDJSON batch with its own X-Batch-Seq, so epoch barriers and
// checkpoints land in the timed region at their production rate.
func BenchmarkClusterIngest(b *testing.B) {
	for _, nodes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			dir := b.TempDir()
			urls := make([]string, nodes)
			for i := range urls {
				opts := stream.DefaultEngineOptions()
				opts.Shards = 1
				opts.EpochLength = stream.ExternalEpochLength
				eng, err := stream.NewEngine(opts)
				if err != nil {
					b.Fatal(err)
				}
				store := stream.NewCheckpointStore(filepath.Join(dir, fmt.Sprintf("member%d.ckpt", i)), 2)
				srv := httptest.NewServer(newStreamServer(eng, serveConfig{Batch: 1024, Store: store}, io.Discard).handler())
				b.Cleanup(srv.Close)
				urls[i] = srv.URL
			}
			rt, err := cluster.New(cluster.Config{
				Nodes:            urls,
				Batch:            1024,
				EpochLength:      1024,
				CheckpointEpochs: 4,
				ManifestPath:     filepath.Join(dir, "cluster.json"),
			})
			if err != nil {
				b.Fatal(err)
			}
			srv := httptest.NewServer(newRouterServer(rt, io.Discard, nil, "text").handler())
			b.Cleanup(srv.Close)
			if _, err := rt.Ingest(context.Background(), benchCorpus(200, 4096, 8, 0), "warm"); err != nil {
				b.Fatal(err)
			}
			bodies := ndjsonBodies(benchCorpus(200, 4096, 8, 1), 64)
			tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
			b.Cleanup(tr.CloseIdleConnections)
			client := &http.Client{Transport: tr}
			url := srv.URL + "/v1/observe"
			var seq atomic.Int64
			driveConcurrent(b, func(i int) (*http.Response, error) {
				n := seq.Add(1)
				req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(bodies[int(n)%len(bodies)]))
				if err != nil {
					return nil, err
				}
				req.Header.Set("Content-Type", "application/x-ndjson")
				req.Header.Set(resilience.SeqHeader, "bench-"+strconv.FormatInt(n, 10))
				return client.Do(req)
			})
		})
	}
}
