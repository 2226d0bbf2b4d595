package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slimfast/internal/query"
	"slimfast/internal/resilience"
)

func mustQuery(t *testing.T, raw string) *query.Query {
	t.Helper()
	vals, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(vals, query.EstimateColumns())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// drain runs a router query to completion.
func drain(t *testing.T, r *Router, raw string) {
	t.Helper()
	res, err := r.Query(context.Background(), mustQuery(t, raw))
	if err != nil {
		t.Fatalf("query %q: %v", raw, err)
	}
	for range res.Rows {
	}
}

// TestRouterPointQueryHitsOwnerOnly pins the owner-only routing of
// object= queries: row and group point queries reach the member that
// owns the object and no other, while an unpinned query reaches all.
func TestRouterPointQueryHitsOwnerOnly(t *testing.T) {
	r, fakes := fakeCluster(t, 3, nil)
	const obj = "obj042"
	owner := r.Partition(obj)
	drain(t, r, "where=object="+obj)
	drain(t, r, "where=object="+obj+"&where=confidence>0.5&cols=object,dissent")
	drain(t, r, "group=value&agg=count,avg:confidence&where=object="+obj)
	for i, f := range fakes {
		want := 0
		if i == owner {
			want = 3
		}
		if len(f.reads) != want {
			t.Errorf("member %d (owner %d) saw %d point reads %q, want %d", i, owner, len(f.reads), f.reads, want)
		}
		if i == owner && len(f.reads) == 3 && !strings.Contains(f.reads[2], "partial=1") {
			t.Errorf("owner's group read %q is not a partial", f.reads[2])
		}
	}
	drain(t, r, "where=confidence>0.5&order=-contested&limit=5")
	for i, f := range fakes {
		if last := f.reads[len(f.reads)-1]; !strings.Contains(last, "order=-contested") {
			t.Errorf("member %d did not receive the unpinned query (last read %q)", i, last)
		}
	}
}

// rendezvousCluster starts n fake members whose matching read routes
// block on a shared rendezvous, and a router over them with retries
// off so a missed rendezvous surfaces as an error.
func rendezvousCluster(t *testing.T, n int) *Router {
	t.Helper()
	rv := &rendezvous{arrived: map[string]int{}, gates: map[string]chan struct{}{}}
	urls := make([]string, n)
	for i := range urls {
		f := &fakeNode{seen: map[string]bool{}, label: "obj" + string(rune('a'+i))}
		inner := f.handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/estimates", "/v1/sources":
				if !rv.meet(r.URL.Path) {
					http.Error(w, "rendezvous timed out: the other request never arrived", http.StatusGatewayTimeout)
					return
				}
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	r, err := New(Config{Nodes: urls, Retry: resilience.ClientConfig{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRouterReadsAreConcurrent proves the router's reads have their
// member requests in flight at once, in two ways: one read reaches
// both members together (each member blocks until the other has its
// request), and two reads run together (the only member blocks until
// both reads' requests arrived). A router that visits members one
// after another, or that serializes reads on an exclusive lock,
// deadlocks here until the rendezvous gives up.
func TestRouterReadsAreConcurrent(t *testing.T) {
	ctx := context.Background()
	t.Run("members", func(t *testing.T) {
		r := rendezvousCluster(t, 2)
		var est bytes.Buffer
		if err := r.Estimates(ctx, &est); err != nil {
			t.Fatalf("estimates: %v", err)
		}
		if want := estimatesHeader + "obja,v,0.5000\nobjb,v,0.5000\n"; est.String() != want {
			t.Errorf("estimates merged to %q, want node order %q", est.String(), want)
		}
		if _, err := r.SourceRelation(ctx); err != nil {
			t.Fatalf("sources: %v", err)
		}
		drain(t, r, "group=value&agg=count,sum:confidence")
		drain(t, r, "where=confidence>0.5&order=-contested&limit=5")
	})
	t.Run("readers", func(t *testing.T) {
		r := rendezvousCluster(t, 1)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				errs[i] = r.Estimates(ctx, &buf)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("reader %d: %v", i, err)
			}
		}
	})
}

// TestGatherEmitsInNodeOrder pins gather's contract: bodies reach emit
// in node order however the fetches finish, a failure stops emission
// at the lowest-numbered failing node (fetch or emit), and gather
// returns only after every fetch has finished.
func TestGatherEmitsInNodeOrder(t *testing.T) {
	r, _ := fakeCluster(t, 3, nil)
	run := func(failFetch, failEmit map[int]bool) ([]int, int32, error) {
		var fetched atomic.Int32
		var order []int
		later := make([]chan struct{}, 3)
		for j := range later {
			later[j] = make(chan struct{})
		}
		err := r.gather(func(j int) ([]byte, error) {
			defer fetched.Add(1)
			defer close(later[j])
			if j+1 < len(later) {
				<-later[j+1] // answer in reverse node order
			}
			if failFetch[j] {
				return nil, fmt.Errorf("fetch %d", j)
			}
			return []byte{byte('0' + j)}, nil
		}, func(j int, body []byte) error {
			if string(body) != string(rune('0'+j)) {
				t.Errorf("emit %d got body %q", j, body)
			}
			order = append(order, j)
			if failEmit[j] {
				return fmt.Errorf("emit %d", j)
			}
			return nil
		})
		return order, fetched.Load(), err
	}
	for _, tc := range []struct {
		name                string
		failFetch, failEmit map[int]bool
		wantOrder           []int
		wantErr             string
	}{
		{"ok", nil, nil, []int{0, 1, 2}, ""},
		{"fetch 1 fails", map[int]bool{1: true}, nil, []int{0}, "fetch 1"},
		{"fetches 0 and 2 fail", map[int]bool{0: true, 2: true}, nil, nil, "fetch 0"},
		{"emit 0 fails", nil, map[int]bool{0: true}, []int{0}, "emit 0"},
	} {
		order, fetched, err := run(tc.failFetch, tc.failEmit)
		if fmt.Sprint(order) != fmt.Sprint(tc.wantOrder) {
			t.Errorf("%s: emitted %v, want %v", tc.name, order, tc.wantOrder)
		}
		if fetched != 3 {
			t.Errorf("%s: gather returned with %d of 3 fetches finished", tc.name, fetched)
		}
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}
