package stream

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// scanRows collects copies of every row a ScanShard call visits.
func scanRows(e *Engine, s int, opt ScanOptions) []Row {
	var out []Row
	e.ScanShard(s, opt, func(r *Row) bool {
		out = append(out, *r)
		return true
	})
	return out
}

// TestScanObjectKeyMatchesFilteredWalk is the differential check of
// the index probe: on random engines (some capped so they evict), for
// seen, evicted and never-seen names and with or without a disagree
// pair, a keyed ScanShard visits exactly the rows the plain slot walk
// keeps after filtering on Row.Object — on every shard, not only the
// owner.
func TestScanObjectKeyMatchesFilteredWalk(t *testing.T) {
	hits, misses := 0, 0
	for seed := uint64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewPCG(seed, 7))
		opts := DefaultEngineOptions()
		opts.Shards = 1 + r.IntN(5)
		opts.Workers = 1
		opts.EpochLength = 16 + r.IntN(64)
		if r.IntN(2) == 0 {
			opts.MaxObjects = 8 + r.IntN(40)
		}
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		nObjs := 20 + r.IntN(80)
		for b := 0; b < 10; b++ {
			batch := make([]Triple, 1+r.IntN(40))
			for i := range batch {
				batch[i] = Triple{
					Source: fmt.Sprintf("s%d", r.IntN(6)),
					Object: fmt.Sprintf("o%d", r.IntN(nObjs)),
					Value:  fmt.Sprintf("v%d", r.IntN(3)),
				}
			}
			e.ObserveBatch(batch)
		}
		opt := NoPair
		if r.IntN(2) == 0 {
			if ia, ib, ok := e.SourceIDs("s0", "s1"); ok {
				opt.PairA, opt.PairB = ia, ib
			}
		}
		for probe := 0; probe < 40; probe++ {
			name := fmt.Sprintf("o%d", r.IntN(nObjs+10)) // some never seen
			keyed := opt
			keyed.Object = name
			for s := 0; s < e.NumShards(); s++ {
				var want []Row
				for _, row := range scanRows(e, s, opt) {
					if row.Object == name {
						want = append(want, row)
					}
				}
				if got := scanRows(e, s, keyed); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d shard %d object %q: keyed scan visited %+v, filtered walk kept %+v", seed, s, name, got, want)
				}
				if len(want) > 0 {
					hits++
				} else if s == ShardIndex(name, e.NumShards()) {
					misses++
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("probes found %d live objects and missed %d: both paths must be exercised", hits, misses)
	}
}
