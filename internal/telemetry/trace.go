package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// DefaultTraceCapacity is the event-buffer size NewTracer uses when the
// caller passes capacity <= 0. At roughly ten events per kernel pass this
// holds a few tens of thousands of batches — more than any test or demo
// run emits.
const DefaultTraceCapacity = 1 << 18

// Args carries the key/value payload attached to a trace event.
type Args map[string]any

// Event is one Chrome trace-event object. Field names follow the Trace
// Event Format so the exported JSON loads directly in Perfetto or
// chrome://tracing.
type Event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`            // microseconds since tracer start
	Dur  float64 `json:"dur,omitempty"` // microseconds, complete events only
	Pid  int64   `json:"pid"`
	Tid  int64   `json:"tid"`
	ID   string  `json:"id,omitempty"` // async span id
	S    string  `json:"s,omitempty"`  // instant scope ("t" = thread)
	Args Args    `json:"args,omitempty"`
}

// Tracer records trace events into a bounded in-memory buffer. Recording
// takes a short mutex per event; events arrive at batch granularity (a few
// per 16-lane kernel pass), so contention is negligible. When the buffer
// fills, further events are counted as dropped rather than grown — a trace
// is a diagnostic artifact, not an unbounded log.
//
// All methods are safe on a nil *Tracer (no-ops), which is how tracing
// stays off by default.
type Tracer struct {
	start time.Time
	limit int

	mu      sync.Mutex
	events  []Event
	dropped int64
}

// NewTracer returns a tracer buffering up to capacity events (<= 0 selects
// DefaultTraceCapacity). The tracer's clock origin is the call time; all
// event timestamps are microseconds since then.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{start: time.Now(), limit: capacity}
	t.emit(Event{Name: "process_name", Ph: "M", Pid: 1,
		Args: Args{"name": "phiopenssl batch server"}})
	return t
}

// now returns the current trace timestamp in microseconds.
func (t *Tracer) now() float64 {
	return float64(time.Since(t.start)) / float64(time.Microsecond)
}

// ts converts an absolute time to a trace timestamp in microseconds.
func (t *Tracer) ts(at time.Time) float64 {
	return float64(at.Sub(t.start)) / float64(time.Microsecond)
}

func (t *Tracer) emit(e Event) {
	t.mu.Lock()
	if len(t.events) < t.limit {
		t.events = append(t.events, e)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Instrument registers the tracer's drop counter with a registry so a
// silently truncated trace is visible on /metrics
// (telemetry_trace_dropped_total) instead of only as a suspiciously short
// export. Safe on a nil tracer or registry.
func (t *Tracer) Instrument(r *Registry) {
	if t == nil || r == nil {
		return
	}
	r.CounterFunc("telemetry_trace_dropped_total",
		"trace events discarded because the bounded trace buffer was full",
		func() float64 { return float64(t.Dropped()) })
}

// NameThread assigns a display name to a track (a tid). In the exported
// trace each serving worker gets one track, and each card one control
// track for its batch fills, steals, breaker and timeout events (tid 0
// for a standalone server).
func (t *Tracer) NameThread(tid int64, name string) {
	if t == nil {
		return
	}
	t.emit(Event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
		Args: Args{"name": name}})
}

// Slice records a complete ("X") event: name ran on track tid from start
// for dur. Nested slices on one track render as a flame graph.
func (t *Tracer) Slice(tid int64, name string, start time.Time, dur time.Duration, args Args) {
	if t == nil {
		return
	}
	t.emit(Event{Name: name, Cat: "batch", Ph: "X", Ts: t.ts(start),
		Dur: float64(dur) / float64(time.Microsecond), Pid: 1, Tid: tid, Args: args})
}

// Instant records a point-in-time ("i") event on track tid — fault
// detections, retries, stalls, breaker transitions.
func (t *Tracer) Instant(tid int64, name string, args Args) {
	if t == nil {
		return
	}
	t.emit(Event{Name: name, Cat: "event", Ph: "i", Ts: t.now(), Pid: 1,
		Tid: tid, S: "t", Args: args})
}

// Mark is one point-in-time step inside an async span.
type Mark struct {
	At   time.Time
	Name string
	Args Args
}

// Span records one request's whole lifetime as an async span keyed by id:
// a "b" event at start carrying args, one "n" event per mark, and an "e"
// event at end carrying endArgs. Async spans live on their own id,
// independent of any worker track, so a request that hops between the
// scheduler, workers and cards renders as one bar. The span is buffered
// whole or dropped whole, so a full buffer never leaves a begin without
// its end.
func (t *Tracer) Span(id, name string, start, end time.Time, args Args, marks []Mark, endArgs Args) {
	if t == nil {
		return
	}
	evs := make([]Event, 0, len(marks)+2)
	evs = append(evs, Event{Name: name, Cat: "request", Ph: "b", Ts: t.ts(start), Pid: 1,
		ID: id, Args: args})
	for _, m := range marks {
		evs = append(evs, Event{Name: m.Name, Cat: "request", Ph: "n", Ts: t.ts(m.At), Pid: 1,
			ID: id, Args: m.Args})
	}
	evs = append(evs, Event{Name: name, Cat: "request", Ph: "e", Ts: t.ts(end), Pid: 1,
		ID: id, Args: endArgs})
	t.mu.Lock()
	if len(t.events)+len(evs) <= t.limit {
		t.events = append(t.events, evs...)
	} else {
		t.dropped += int64(len(evs))
	}
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events were discarded because the buffer was
// full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the buffered events (for tests and custom
// exporters).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Export writes the buffered events as a Chrome trace-event JSON object
// ({"traceEvents": [...]}) that loads directly in Perfetto. When the
// bounded buffer overflowed during the run, the header carries the drop
// count ("otherData": {"droppedEvents": N}) so a truncated trace announces
// itself instead of silently ending early. Safe on a nil tracer (writes an
// empty trace).
func (t *Tracer) Export(w io.Writer) error {
	events := t.Events()
	if events == nil {
		events = []Event{}
	}
	doc := map[string]any{"traceEvents": events}
	if d := t.Dropped(); d > 0 {
		doc["otherData"] = map[string]any{"droppedEvents": d}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
