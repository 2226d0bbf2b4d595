package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// rendezvousTimeout bounds how long one member waits for the other at
// a rendezvous. It is a deadlock detector, not a timing assumption: a
// router that reaches the members one after another never completes a
// rendezvous however long it waits.
const rendezvousTimeout = 5 * time.Second

// rendezvous pairs up requests on the same route across two members:
// the k-th request on a route is released only once the other member
// has received its k-th request on that route too.
type rendezvous struct {
	mu      sync.Mutex
	arrived map[string]int
	gates   map[string]chan struct{}
}

func (rv *rendezvous) meet(route string) bool {
	rv.mu.Lock()
	n := rv.arrived[route]
	rv.arrived[route] = n + 1
	key := route + "#" + strconv.Itoa(n/2)
	gate, ok := rv.gates[key]
	if !ok {
		gate = make(chan struct{})
		rv.gates[key] = gate
	}
	if n%2 == 1 {
		close(gate)
	}
	rv.mu.Unlock()
	select {
	case <-gate:
		return true
	case <-time.After(rendezvousTimeout):
		return false
	}
}

// claimsOnBothNodes builds c claims whose every run of batch
// consecutive claims routes objects to both of two partitions.
func claimsOnBothNodes(c, batch int) []stream.Triple {
	var objs [2][]string
	for i := 0; len(objs[0]) < 8 || len(objs[1]) < 8; i++ {
		name := fmt.Sprintf("obj%03d", i)
		j := stream.ShardIndex(name, 2)
		if len(objs[j]) < 8 {
			objs[j] = append(objs[j], name)
		}
	}
	out := make([]stream.Triple, c)
	for i := range out {
		part := (i % batch) % 2
		obj := objs[part][(i/2)%8]
		out[i] = stream.Triple{Source: fmt.Sprintf("s%d", i%5), Object: obj, Value: fmt.Sprintf("v%d", (i/3)%3)}
	}
	return out
}

// TestFanOutIsConcurrent proves the router has every member's request
// in flight at once for each fan-out step: each member's observe,
// drain, apply and checkpoint handlers block until the other member
// has its matching request. A router that waits for one member before
// contacting the next deadlocks here and fails once the rendezvous
// gives up.
func TestFanOutIsConcurrent(t *testing.T) {
	rv := &rendezvous{arrived: map[string]int{}, gates: map[string]chan struct{}{}}
	fakes := make([]*fakeNode, 2)
	urls := make([]string, 2)
	for i := range fakes {
		fakes[i] = &fakeNode{seen: map[string]bool{}}
		inner := fakes[i].handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/observe", "/v1/epoch/drain", "/v1/epoch/apply", "/v1/checkpoint":
				if !rv.meet(r.URL.Path) {
					http.Error(w, "rendezvous timed out: the other member never got its request", http.StatusGatewayTimeout)
					return
				}
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	r, err := New(Config{
		Nodes:            urls,
		Batch:            4,
		EpochLength:      8,
		CheckpointEpochs: 1,
		Retry:            resilience.ClientConfig{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Ingest(context.Background(), claimsOnBothNodes(16, 4), "rv")
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.Ingested != 16 || res.Barriers != 2 {
		t.Errorf("result = %+v, want 16 claims and 2 barriers", res)
	}
	if err := r.Checkpoint(context.Background()); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i, f := range fakes {
		if f.claims != 8 || len(f.drains) != 2 || len(f.applies) != 2 || f.checkpts != 3 {
			t.Errorf("member %d: claims %d drains %d applies %d checkpoints %d, want 8/2/2/3",
				i, f.claims, len(f.drains), len(f.applies), f.checkpts)
		}
	}
}
