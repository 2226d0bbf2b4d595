package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the span that caused it (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Parent int32         `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays only a nil check.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// finish closes span id.
func (t *tracer) finish(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-measured span.
func (t *tracer) record(name string, parent int32, req int64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	t.mu.Unlock()
	return id
}

// layerTime is the aggregate of every closed span with one name.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of durations minus the time child spans cover
	Selfs []float64     // each span's self time in µs
}

// layers aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span.
func (t *tracer) layers() map[string]layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]int32{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		if s.End < s.Start {
			continue // never closed
		}
		var iv [][2]time.Duration
		for _, c := range children[int32(i)] {
			cs := t.spans[c]
			if cs.End < cs.Start {
				continue
			}
			iv = append(iv, [2]time.Duration{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.End - s.Start
		self := s.End - s.Start - covered(iv)
		lt.Self += self
		lt.Selfs = append(lt.Selfs, float64(self.Nanoseconds())/1e3)
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		curHi = max(curHi, x[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianSelfUS is the median self time of the named spans in µs (0
// when the workload recorded none).
func medianSelfUS(l map[string]layerTime, name string) float64 {
	if len(l[name].Selfs) == 0 {
		return 0
	}
	return median(l[name].Selfs)
}

// meanSelfUS is the mean self time of the named spans in µs (0 when the
// workload recorded none).
func meanSelfUS(l map[string]layerTime, name string) float64 {
	lt := l[name]
	return ratio(float64(lt.Self.Nanoseconds())/1e3, float64(lt.Count))
}
