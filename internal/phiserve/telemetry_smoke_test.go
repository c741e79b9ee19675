package phiserve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"phiopenssl/internal/phitrace"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/telemetry"
)

// tracedRun streams n rsa-priv requests through a server whose journey
// recorder (1-in-sampleN sampling) shares its traced telemetry bundle,
// checks every answer, and returns the closed server and the recorder.
func tracedRun(t *testing.T, tel *telemetry.Telemetry, n, sampleN int) (*Server, *phitrace.Recorder) {
	t.Helper()
	nc := 24
	cs, want, _ := perOpAnswers(t, testKey, nc, 700)
	rec := phitrace.New(phitrace.Config{Telemetry: tel, SampleN: sampleN, RingSize: n})
	s, err := New(Config{
		Workers:      4,
		FillDeadline: 50 * time.Millisecond,
		Telemetry:    tel,
		Journeys:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	resps := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[i%nc]}, SubmitOpts{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		resps[i] = ch
	}
	for i, ch := range resps {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if !res.M.Equal(want[i%nc]) {
			t.Fatalf("request %d: wrong plaintext", i)
		}
	}
	s.Close()
	return s, rec
}

// traceEvent is the subset of a Chrome trace event the checks read.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Pid  int64   `json:"pid"`
	Tid  int64   `json:"tid"`
	ID   string  `json:"id"`
}

// exportTrace round-trips the tracer through its Chrome trace-event JSON
// export, failing on invalid JSON or a truncated buffer.
func exportTrace(t *testing.T, tr *telemetry.Tracer) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid Chrome trace-event JSON: %v", err)
	}
	if dropped := tr.Dropped(); dropped != 0 {
		t.Fatalf("trace buffer dropped %d events; capacity too small for the run", dropped)
	}
	return trace.TraceEvents
}

// requestSpans checks that every request span in evs has exactly one
// begin and one end, and returns the number of spans.
func requestSpans(t *testing.T, evs []traceEvent) int {
	t.Helper()
	begins := map[string]int{}
	ends := map[string]int{}
	for _, ev := range evs {
		switch {
		case ev.Ph == "b" && ev.Cat == "request":
			begins[ev.ID]++
		case ev.Ph == "e" && ev.Cat == "request":
			ends[ev.ID]++
		}
	}
	for id, c := range ends {
		if c != 1 {
			t.Fatalf("request %s resolved %d times in the trace", id, c)
		}
		if begins[id] != 1 {
			t.Fatalf("request %s has %d begin spans", id, begins[id])
		}
	}
	if len(begins) != len(ends) {
		t.Fatalf("trace has %d begun spans but %d ended ones", len(begins), len(ends))
	}
	return len(ends)
}

// TestTelemetrySmoke is the end-to-end observability check: a thousand
// requests stream through a traced server whose journey recorder keeps
// every journey, and afterwards (a) the trace buffer exports as valid
// Chrome trace-event JSON with exactly one begin/end request span pair per
// submitted request, keyed by its journey id, and one pass slice per
// batch, and (b) the Prometheus endpoint scrape shows per-phase cycle
// attribution summing to the total simulated cycle counter within 0.1%.
func TestTelemetrySmoke(t *testing.T) {
	const n = 1008 // 63 full 16-lane batches
	tel := telemetry.NewWithTrace(0)
	s, _ := tracedRun(t, tel, n, 1)

	// --- Trace: valid Chrome trace JSON, one request span per request.
	evs := exportTrace(t, tel.Tracer)
	if spans := requestSpans(t, evs); spans != n {
		t.Fatalf("trace has %d request spans, want %d", spans, n)
	}
	var passes, threads int
	for _, ev := range evs {
		switch {
		case ev.Ph == "b" && ev.Cat == "request":
			// Journey ids number the recorder's journeys from 1.
			if id, err := strconv.Atoi(ev.ID); err != nil || id < 1 || id > n {
				t.Fatalf("request span id %q is not a journey id in 1..%d", ev.ID, n)
			}
		case ev.Ph == "X" && ev.Name == "pass":
			passes++
		case ev.Ph == "M" && ev.Name == "thread_name":
			threads++
		}
	}
	st := s.Stats()
	if int64(passes) != st.Batches {
		t.Fatalf("trace has %d pass slices, stats report %d batches", passes, st.Batches)
	}
	if threads < 2 { // scheduler track + at least one worker track
		t.Fatalf("trace names only %d threads", threads)
	}

	// --- Metrics: scrape the live endpoint and cross-check attribution.
	rec := httptest.NewRecorder()
	telemetry.Handler(tel).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics returned %d", rec.Code)
	}
	body := rec.Body.String()
	var phaseSum, total, completed float64
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "phiserve_phase_sim_cycles_total{"):
			phaseSum += metricValue(t, line)
		case strings.HasPrefix(line, "phiserve_sim_cycles_total "):
			total = metricValue(t, line)
		case strings.HasPrefix(line, "phiserve_requests_completed_total "):
			completed = metricValue(t, line)
		}
	}
	if completed != n {
		t.Fatalf("scraped %v completed requests, want %d", completed, n)
	}
	if total <= 0 {
		t.Fatalf("no simulated cycles scraped:\n%s", body)
	}
	if rel := math.Abs(phaseSum-total) / total; rel > 0.001 {
		t.Fatalf("phase cycle attribution %v vs total %v: relative error %v > 0.1%%",
			phaseSum, total, rel)
	}
}

// TestTelemetrySampledSpans: with 1-in-16 tail sampling the trace holds
// exactly one request span per kept journey — the journey is the only
// per-request record, so a discarded journey leaves no span behind.
func TestTelemetrySampledSpans(t *testing.T) {
	const n = 320
	tel := telemetry.NewWithTrace(0)
	_, rec := tracedRun(t, tel, n, 16)
	c := rec.Counts()
	if c.Resolved != n {
		t.Fatalf("resolved %d journeys, want %d", c.Resolved, n)
	}
	kept := c.KeptAnomalous + c.KeptSampled
	if kept == 0 || kept == n {
		t.Fatalf("kept %d of %d journeys; 1-in-16 sampling should keep some, not all", kept, n)
	}
	if spans := requestSpans(t, exportTrace(t, tel.Tracer)); int64(spans) != kept {
		t.Fatalf("trace has %d request spans, recorder kept %d journeys", spans, kept)
	}
}

// TestCompletedJourneysKeepPassEvent: the pass event is recorded before
// the pass delivers its lanes, so every completed journey (all kept, with
// SampleN 1) holds exactly one pass event, ahead of its terminal.
func TestCompletedJourneysKeepPassEvent(t *testing.T) {
	const n = 64
	_, rec := tracedRun(t, telemetry.NewWithTrace(0), n, 1)
	kept := rec.Kept(n)
	if len(kept) != n {
		t.Fatalf("kept %d journeys, want %d", len(kept), n)
	}
	for _, j := range kept {
		evs := j.Events()
		last := len(evs) - 1
		if j.Outcome() != phitrace.OutcomeCompleted || evs[last].Kind != "end:completed" {
			t.Fatalf("journey %d: outcome %s, last event %q", j.ID(), j.Outcome(), evs[last].Kind)
		}
		passes := 0
		for _, e := range evs[:last] {
			if e.Kind == "pass" {
				passes++
			}
		}
		if passes != 1 {
			t.Fatalf("journey %d: %d pass events before its terminal, want 1 (events %+v)", j.ID(), passes, evs)
		}
	}
}

// metricValue parses the sample value off one Prometheus text line.
func metricValue(t *testing.T, line string) float64 {
	t.Helper()
	i := strings.LastIndexByte(line, ' ')
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		t.Fatalf("bad metric line %q: %v", line, err)
	}
	return v
}
