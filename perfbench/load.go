package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed operation.
type sample struct {
	sent, done time.Time
	claims     int
	err        error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.sent) }

// closedLoop runs workers goroutines, each sending its next operation
// as soon as the previous one answers, while more(i) holds for the next
// operation number. op(w, i) performs operation i on worker w's
// connection and returns how many claims it carried. Operation numbers
// are handed out in order across workers.
func closedLoop(workers int, more func(i int64) bool, op func(w int, i int64) (int, error)) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				i := next.Add(1) - 1
				if !more(i) {
					break
				}
				sent := time.Now()
				n, err := op(w, i)
				mine = append(mine, sample{sent: sent, done: time.Now(), claims: n, err: err})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// until is a closedLoop condition: keep going until t.
func until(t time.Time) func(int64) bool { return func(int64) bool { return time.Now().Before(t) } }

// count is a closedLoop condition: run operations 0..n-1.
func count(n int64) func(int64) bool { return func(i int64) bool { return i < n } }

// window selects the samples sent inside [from, to).
func window(ss []sample, from, to time.Time) []sample {
	var out []sample
	for _, s := range ss {
		if !s.sent.Before(from) && s.sent.Before(to) {
			out = append(out, s)
		}
	}
	return out
}

// latenciesMS returns the latencies of the successful samples in ms.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.err == nil {
			out = append(out, float64(s.latency().Nanoseconds())/1e6)
		}
	}
	return out
}

// failures counts failed samples.
func failures(ss []sample) int64 {
	var n int64
	for _, s := range ss {
		if s.err != nil {
			n++
		}
	}
	return n
}
