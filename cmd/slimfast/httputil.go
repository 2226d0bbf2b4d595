// HTTP plumbing under the serving surface (surface.go): JSON
// responses and the error envelope, format negotiation, and the claim
// body parser both backends accept. Response-write failures (a
// client that hung up mid-response) log through the request-scoped
// slog logger, so the record carries the request ID, method and path
// instead of an anonymous "# WARNING" line.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"

	"slimfast/internal/data"
	"slimfast/internal/resilience"
)

// writeJSONLog writes a JSON response; encode/write failures are
// logged on log (request-scoped when called through the surface's
// writeJSON method), not dropped. Every 429 and 503 the API sends is
// retryable and says so with Retry-After.
func writeJSONLog(w http.ResponseWriter, log *slog.Logger, code int, v any) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Warn("writing JSON response failed", slog.Any("error", err))
	}
}

// errorCode maps an HTTP status to the machine-readable code of the
// uniform error envelope. 503 defaults to "shed" (admission pressure);
// sites where a 503 really means a deadline (the ingest-lock wait)
// override it through httpErrorCodeLog.
func errorCode(status int) string {
	switch status {
	case http.StatusRequestTimeout:
		return "timeout"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return "shed"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "bad_request"
	}
}

// httpErrorLog writes the uniform JSON error envelope every endpoint
// uses: {"error": ..., "code": shed|timeout|bad_request|conflict|internal},
// with the code derived from the status.
func httpErrorLog(w http.ResponseWriter, log *slog.Logger, status int, msg string) {
	httpErrorCodeLog(w, log, status, errorCode(status), msg)
}

// httpErrorCodeLog writes the error envelope with an explicit code.
func httpErrorCodeLog(w http.ResponseWriter, log *slog.Logger, status int, code, msg string) {
	writeJSONLog(w, log, status, map[string]any{"error": msg, "code": code})
}

// negotiateFormat picks the response format for the relational read
// endpoints: an explicit format parameter wins, otherwise an Accept
// header naming application/json selects NDJSON, default CSV. An
// unknown format parameter is a 400 — it is part of the query surface.
func negotiateFormat(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "":
		if strings.Contains(r.Header.Get("Accept"), "application/json") {
			return "json", nil
		}
		return "csv", nil
	case "csv", "json", "ndjson":
		return f, nil
	default:
		return "", fmt.Errorf("unknown format %q (want csv or json)", f)
	}
}

// resultContentType is the Content-Type a negotiated format serves as.
func resultContentType(format string) string {
	if format == "csv" {
		return "text/csv"
	}
	return "application/x-ndjson"
}

// seqKey extracts the client's idempotency key: the X-Batch-Seq
// header, or the ?seq query parameter for header-less clients.
func seqKey(r *http.Request) string {
	if k := r.Header.Get(resilience.SeqHeader); k != "" {
		return k
	}
	return r.URL.Query().Get("seq")
}

// observation is one NDJSON ingest record.
type observation struct {
	Source string `json:"source"`
	Object string `json:"object"`
	Value  string `json:"value"`
}

// parseClaimBody streams an ingest body through add: text/csv bodies
// use the source,object,value exchange format (header row optional),
// anything else is parsed as NDJSON. A row with an empty field is an
// error. On error, claims before the bad row have already been
// delivered to add — the caller reports how many.
func parseClaimBody(body []byte, contentType string, add func(source, object, value string) error) error {
	check := func(source, object, value string) error {
		if source == "" || object == "" || value == "" {
			return errEmptyClaimField
		}
		return add(source, object, value)
	}
	if strings.Contains(contentType, "csv") {
		return data.StreamObservationsCSV(bytes.NewReader(body), check)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	row := 0
	for {
		var ob observation
		if derr := dec.Decode(&ob); derr == io.EOF {
			return nil
		} else if derr != nil {
			return fmt.Errorf("ndjson row %d: %w", row+1, derr)
		}
		row++
		if aerr := check(ob.Source, ob.Object, ob.Value); aerr != nil {
			return fmt.Errorf("ndjson row %d: %w", row, aerr)
		}
	}
}

// errEmptyClaimField is the validation failure for ingest rows.
var errEmptyClaimField = errors.New("source, object and value must all be non-empty")
