package query

import (
	"fmt"
	"net/url"
	"runtime"
	"testing"

	"slimfast/internal/stream"
)

// benchClaims builds a large uncontested stream: n objects, three
// sources each — big enough that materializing the estimate set costs
// real allocation, which a pushed-down selective query must not pay.
func benchClaims(n int) [][3]string {
	out := make([][3]string, 0, 3*n)
	for o := 0; o < n; o++ {
		obj := fmt.Sprintf("b%05d", o)
		for s := 0; s < 3; s++ {
			val := "t"
			if s == 2 && o%7 == 0 {
				val = "w"
			}
			out = append(out, [3]string{fmt.Sprintf("s%d", s), obj, val})
		}
	}
	return out
}

var benchTop10 = mustParse("order=-contested&limit=10")

func mustParse(raw string) *Query {
	vals, err := url.ParseQuery(raw)
	if err != nil {
		panic(err)
	}
	q, err := Parse(vals, EstimateColumns())
	if err != nil {
		panic(err)
	}
	return q
}

func runTop10(e *stream.Engine) int {
	res, err := Execute(e, benchTop10)
	if err != nil {
		panic(err)
	}
	n := 0
	for range res.Rows {
		n++
	}
	return n
}

// TestSelectiveQueryAllocatesFarLessThanMaterializing is the
// pushdown's acceptance bar: a limit-10 query over 12k objects keeps
// only bounded per-shard buffers, so it allocates a small fraction of
// what EstimateAll's full materialization does.
func TestSelectiveQueryAllocatesFarLessThanMaterializing(t *testing.T) {
	e := buildEngine(t, 4, 4, 1024, benchClaims(12000))
	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// Warm both paths once so lazy engine state is off the books.
	if n := runTop10(e); n != 10 {
		t.Fatalf("top-10 query returned %d rows", n)
	}
	_ = e.EstimateAll()

	queryBytes := measure(func() { runTop10(e) })
	allBytes := measure(func() { _ = e.EstimateAll() })
	t.Logf("selective query: %d bytes, EstimateAll: %d bytes", queryBytes, allBytes)
	if queryBytes*5 >= allBytes {
		t.Errorf("selective query allocated %d bytes, not ≪ EstimateAll's %d", queryBytes, allBytes)
	}
}

// BenchmarkQueryTop10Contested is the selective-query benchmark the
// issue asks for: limit 10 of 12k objects through the pushdown.
func BenchmarkQueryTop10Contested(b *testing.B) {
	e := buildEngine(b, 4, 4, 1024, benchClaims(12000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if runTop10(e) != 10 {
			b.Fatal("short result")
		}
	}
}

// BenchmarkEstimateAll is the materializing baseline the selective
// query is measured against.
func BenchmarkEstimateAll(b *testing.B) {
	e := buildEngine(b, 4, 4, 1024, benchClaims(12000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(e.EstimateAll()) != 12000 {
			b.Fatal("short result")
		}
	}
}

// benchObjects is the engine size of the point and group benchmarks.
const benchObjects = 50000

// readMixClaims mirrors the serving benchmark's key space: n objects
// over four values, three to five claims each with one dissenter on
// most objects, so the MAP values spread over four groups.
func readMixClaims(n int) [][3]string {
	out := make([][3]string, 0, 4*n)
	for o := 0; o < n; o++ {
		obj := fmt.Sprintf("b%05d", o)
		for s := 0; s < 3+o%3; s++ {
			val := o % 4
			if s == 1 && o%5 != 0 {
				val = (o + 1) % 4
			}
			out = append(out, [3]string{fmt.Sprintf("s%d", (o+s)%40), obj, fmt.Sprintf("v%d", val)})
		}
	}
	return out
}

// BenchmarkQueryPoint is one object lookup (where=object=…) over 50k
// objects, rotating through 64 names so no single shard stays hot.
func BenchmarkQueryPoint(b *testing.B) {
	e := buildEngine(b, 4, 4, 1024, readMixClaims(benchObjects))
	qs := make([]*Query, 64)
	for i := range qs {
		qs[i] = mustParse(fmt.Sprintf("where=object=b%05d", (i*7919)%benchObjects))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Execute(e, qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for range res.Rows {
			n++
		}
		if n != 1 {
			b.Fatalf("point query returned %d rows", n)
		}
	}
}

// BenchmarkQueryGroup is the serving read mix's group aggregate
// (group=value&agg=count,avg:confidence) over 50k objects.
func BenchmarkQueryGroup(b *testing.B) {
	e := buildEngine(b, 4, 4, 1024, readMixClaims(benchObjects))
	q := mustParse("group=value&agg=count,avg:confidence")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Execute(e, q)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for range res.Rows {
			n++
		}
		if n != 4 {
			b.Fatalf("group query returned %d groups", n)
		}
	}
}

// BenchmarkQueryGroupMany groups the same 50k objects by object name,
// one group per row: the many-group side of the group table.
func BenchmarkQueryGroupMany(b *testing.B) {
	e := buildEngine(b, 4, 4, 1024, readMixClaims(benchObjects))
	q := mustParse("group=object&agg=count,sum:sources")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Execute(e, q)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for range res.Rows {
			n++
		}
		if n != benchObjects {
			b.Fatalf("group query returned %d groups", n)
		}
	}
}
