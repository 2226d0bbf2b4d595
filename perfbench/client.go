package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"
)

// client is one load connection. Each worker owns one, and requests on
// it are sequential, so the benchmark never holds more connections than
// it has workers.
type client struct {
	hc *http.Client
	tr *tracer // nil when untraced
}

func newClient(tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		tr: tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// netTimes are the httptrace marks of one request; the hooks run on
// transport goroutines, hence the lock.
type netTimes struct {
	mu                      sync.Mutex
	getConn, gotConn, wrote time.Time
	firstByte               time.Time
}

func (n *netTimes) mark(dst *time.Time) {
	now := time.Now()
	n.mu.Lock()
	*dst = now
	n.mu.Unlock()
}

// do sends one request and reads the whole response. A non-2xx status
// is returned as an error carrying the body. In a traced run each
// timed observe is a root span with the four network phases as its
// children.
func (c *client) do(op, method, url, contentType, seq string, body []byte, req int64) ([]byte, error) {
	ctx := context.Background()
	var nt *netTimes
	start := time.Now()
	if c.tr != nil && op == "observe" {
		nt = &netTimes{}
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GetConn:              func(string) { nt.mark(&nt.getConn) },
			GotConn:              func(httptrace.GotConnInfo) { nt.mark(&nt.gotConn) },
			WroteRequest:         func(httptrace.WroteRequestInfo) { nt.mark(&nt.wrote) },
			GotFirstResponseByte: func() { nt.mark(&nt.firstByte) },
		})
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	if seq != "" {
		r.Header.Set("X-Batch-Seq", seq)
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if nt != nil && err == nil {
		nt.mu.Lock()
		root := c.tr.record(op, -1, req, start, end)
		c.tr.record("net.conn_wait", root, req, nt.getConn, nt.gotConn)
		c.tr.record("net.write", root, req, nt.gotConn, nt.wrote)
		c.tr.record("net.ttfb", root, req, nt.wrote, nt.firstByte)
		c.tr.record("net.read", root, req, nt.firstByte, end)
		nt.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// ingestAck is the cumulative count a node ("observations") or router
// ("claims") returns after an observe; it orders the acknowledged
// bodies for the replay.
func ingestAck(body []byte) (int64, error) {
	var a struct {
		Observations *int64 `json:"observations"`
		Claims       *int64 `json:"claims"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return 0, fmt.Errorf("observe response %q: %w", body, err)
	}
	switch {
	case a.Observations != nil:
		return *a.Observations, nil
	case a.Claims != nil:
		return *a.Claims, nil
	}
	return 0, fmt.Errorf("observe response %q carries no cumulative count", body)
}
