package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// timeZero gives nil-tracer tests a harmless time value.
func timeZero() time.Time { return time.Time{} }

func TestTracerExportParses(t *testing.T) {
	tr := NewTracer(0)
	tr.NameThread(0, "scheduler")
	tr.NameThread(1, "worker 1")
	start := time.Now()
	tr.Slice(1, "pass", start, 3*time.Millisecond, Args{"fill": 16, "cycles": 1234.5})
	tr.Instant(1, "fault-detected", Args{"lanes": 2})
	tr.Span("7", "request", start, start.Add(4*time.Millisecond), Args{"key": "rsa512"},
		[]Mark{{At: start.Add(time.Millisecond), Name: "seal"}}, Args{"outcome": "completed"})

	var sb strings.Builder
	if err := tr.Export(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid trace-event JSON: %v\n%s", err, sb.String())
	}
	// process_name metadata + 2 thread names + X + i + b + n + e = 8 events.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("exported %d events, want 8: %+v", len(doc.TraceEvents), doc.TraceEvents)
	}
	byPh := map[string]int{}
	for _, e := range doc.TraceEvents {
		byPh[e.Ph]++
		if e.Pid != 1 {
			t.Fatalf("event %q pid = %d, want 1", e.Name, e.Pid)
		}
	}
	if byPh["M"] != 3 || byPh["b"] != 1 || byPh["n"] != 1 || byPh["e"] != 1 || byPh["X"] != 1 || byPh["i"] != 1 {
		t.Fatalf("phase histogram = %v", byPh)
	}
	spanTs := map[string]float64{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			if e.Dur < 2900 || e.Dur > 3100 {
				t.Fatalf("slice dur = %v µs, want ~3000", e.Dur)
			}
			if e.Tid != 1 {
				t.Fatalf("slice tid = %d, want 1", e.Tid)
			}
		}
		if e.Ph == "b" || e.Ph == "n" || e.Ph == "e" {
			if e.ID != "7" {
				t.Fatalf("span event %q id = %q, want 7", e.Ph, e.ID)
			}
			spanTs[e.Ph] = e.Ts
		}
	}
	// Span events carry their own timestamps, not the emit time.
	if d := spanTs["n"] - spanTs["b"]; d < 999 || d > 1001 {
		t.Fatalf("mark at %v µs into the span, want 1000", d)
	}
	if d := spanTs["e"] - spanTs["b"]; d < 3999 || d > 4001 {
		t.Fatalf("span lasts %v µs, want 4000", d)
	}
}

// TestTracerSpanAllOrNothing: a span that does not fit the bounded buffer
// is dropped whole, so a truncated trace never holds a begin without its
// end.
func TestTracerSpanAllOrNothing(t *testing.T) {
	tr := NewTracer(4) // 1 slot consumed by the process_name metadata
	now := time.Now()
	marks := []Mark{{At: now, Name: "seal"}, {At: now, Name: "pass"}}
	tr.Span("1", "request", now, now, nil, marks, nil) // 4 events: does not fit
	tr.Span("2", "request", now, now, nil, nil, nil)   // 2 events: fits
	if tr.Len() != 3 || tr.Dropped() != 4 {
		t.Fatalf("len = %d, dropped = %d; want 3 and 4", tr.Len(), tr.Dropped())
	}
	for _, e := range tr.Events()[1:] {
		if e.ID != "2" {
			t.Fatalf("buffered event %+v from the span that did not fit", e)
		}
	}
}

func TestTracerBoundedBuffer(t *testing.T) {
	tr := NewTracer(4) // 1 slot consumed by the process_name metadata
	for i := 0; i < 10; i++ {
		tr.Instant(0, "e", nil)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
}

func TestHandlerEndpoints(t *testing.T) {
	tel := NewWithTrace(0)
	tel.Registry.Counter("hits_total", "hits").Add(9)
	tel.Tracer.Instant(0, "ping", nil)
	srv := httptest.NewServer(Handler(tel))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ct := get("/metrics")
	if !strings.Contains(metrics, "hits_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}

	vars, _ := get("/vars")
	var doc map[string]any
	if err := json.Unmarshal([]byte(vars), &doc); err != nil {
		t.Fatalf("/vars is not JSON: %v", err)
	}
	if doc["hits_total"].(float64) != 9 {
		t.Fatalf("/vars hits_total = %v", doc["hits_total"])
	}

	trace, _ := get("/trace")
	var tdoc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &tdoc); err != nil {
		t.Fatalf("/trace is not trace JSON: %v", err)
	}
	if len(tdoc.TraceEvents) != 2 { // process_name + ping
		t.Fatalf("/trace has %d events, want 2", len(tdoc.TraceEvents))
	}

	index, _ := get("/debug/pprof/")
	if !strings.Contains(index, "pprof") {
		t.Fatalf("/debug/pprof/ unexpected body:\n%s", index)
	}

	// A nil telemetry handler must serve empty documents, not panic.
	nilSrv := httptest.NewServer(Handler(nil))
	defer nilSrv.Close()
	resp, err := nilSrv.Client().Get(nilSrv.URL + "/metrics")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("nil handler /metrics: %v %v", err, resp)
	}
	resp.Body.Close()
}
