package main

import (
	"bytes"
	"fmt"

	"slimfast/internal/obs"
)

// scrape is one parsed /v1/metrics exposition.
type scrape map[string]*obs.Family

func scrapeMetrics(c *client, base string) (scrape, error) {
	body, err := c.do("scrape", "GET", base+"/v1/metrics", "", "", nil, -1)
	if err != nil {
		return nil, err
	}
	fams, err := obs.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("parsing %s/v1/metrics: %w", base, err)
	}
	return scrape(fams), nil
}

// val sums the samples of series (a family name, or a histogram's
// _sum/_count series) whose labels include match. An absent family
// reads 0: the process never registered or never touched it.
func (s scrape) val(family, series string, match map[string]string) float64 {
	f := s[family]
	if f == nil {
		return 0
	}
	total := 0.0
	for _, smp := range f.Samples {
		if smp.Name != series {
			continue
		}
		ok := true
		for k, v := range match {
			if smp.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += smp.Value
		}
	}
	return total
}

// scrapePair is the start and end scrape of one process.
type scrapePair struct{ a, b scrape }

func (p scrapePair) delta(family, series string, match map[string]string) float64 {
	return p.b.val(family, series, match) - p.a.val(family, series, match)
}

// route returns the request count and total handler seconds a process
// spent on one canonical route between the scrapes.
func (p scrapePair) route(route string) (count, seconds float64) {
	const h = "slimfast_http_request_duration_seconds"
	m := map[string]string{"route": route}
	return p.delta(h, h+"_count", m), p.delta(h, h+"_sum", m)
}

// hist returns the count and sum deltas of an unlabeled histogram.
func (p scrapePair) hist(name string) (count, sum float64) {
	return p.delta(name, name+"_count", nil), p.delta(name, name+"_sum", nil)
}

func (p scrapePair) counter(name string) float64 { return p.delta(name, name, nil) }
