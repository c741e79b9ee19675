// Package phitrace records per-request journeys through the batch-serving
// pipeline. A journey is begun where a request first enters the system
// (the admission door, the fleet router, or a standalone server), rides
// along in SubmitOpts, accumulates events at every decision point —
// admit/shed, route, batch seal, queue dequeue, kernel pass with CRT
// breakdown, retry, steal/adopt hop, fallback, expiry checkpoint — and is
// resolved exactly once with a terminal outcome when the request finishes.
//
// The Recorder applies tail-based sampling to the resolved stream:
// journeys that end anomalously (shed, expired, faulted, stolen, retried,
// fallen back, or slower than a configurable fraction of their SLO) are
// always kept; normal completions are kept deterministically 1-in-N. Kept
// journeys sit in a fixed-size ring served as JSON (the /journeys
// endpoint). The same stream feeds per-tenant SLO burn-rate gauges and an
// incident flight recorder (see recorder.go and incident.go).
//
// Everything is nil-safe: a nil *Journey and a nil *Recorder are no-ops,
// so instrumentation sites pay one pointer test when journeys are off.
package phitrace

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"phiopenssl/internal/telemetry"
)

// Outcome is a journey's terminal state. Exactly one is recorded per
// journey; a second Finish is counted (phitrace_journey_terminal_dup_total)
// and otherwise ignored.
type Outcome uint8

const (
	// OutcomeUnknown is the zero value of an unresolved journey.
	OutcomeUnknown Outcome = iota
	// OutcomeCompleted: the request resolved with a verified result.
	OutcomeCompleted
	// OutcomeShedOverload: the admission door shed it because the delay
	// estimate already exceeded the SLO budget (ErrShedOverload).
	OutcomeShedOverload
	// OutcomeShedTenant: brownout fair queuing shed it for its tenant's
	// weight (ErrShedTenant).
	OutcomeShedTenant
	// OutcomeShedOverflow: the scheduler's overflow cap shed it
	// (ErrOverloaded).
	OutcomeShedOverflow
	// OutcomeExpired: an expiry checkpoint dropped it after its deadline
	// passed (ErrDeadlineExceeded).
	OutcomeExpired
	// OutcomeCanceled: its context was canceled or the server closed
	// under it (ErrCanceled).
	OutcomeCanceled
	// OutcomeFaulted: retries and fallback were exhausted without a
	// verified result.
	OutcomeFaulted
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeShedOverload:
		return "shed-overload"
	case OutcomeShedTenant:
		return "shed-tenant"
	case OutcomeShedOverflow:
		return "shed-overflow"
	case OutcomeExpired:
		return "expired"
	case OutcomeCanceled:
		return "canceled"
	case OutcomeFaulted:
		return "faulted"
	default:
		return "unknown"
	}
}

// endKinds are the terminal event kinds, "end:<outcome>", built once so
// resolving a journey builds no string.
var endKinds = func() (kinds [OutcomeFaulted + 1]string) {
	for o := range kinds {
		kinds[o] = "end:" + Outcome(o).String()
	}
	return kinds
}()

// endKind returns the outcome's terminal event kind.
func (o Outcome) endKind() string {
	if int(o) >= len(endKinds) {
		o = OutcomeUnknown // String's "unknown"
	}
	return endKinds[o]
}

// Shed reports whether the outcome is one of the three shed classes.
func (o Outcome) Shed() bool {
	return o == OutcomeShedOverload || o == OutcomeShedTenant || o == OutcomeShedOverflow
}

// Event is one step of a journey. Kind is a short verb ("door", "route",
// "seal", "dequeue", "pass", "retry", "steal", "adopt", "fallback",
// "checkpoint", and a final "end:<outcome>"); Card is the card index the
// step happened on (-1 when not card-bound); Dur is set for steps with
// extent (the kernel pass).
type Event struct {
	At   time.Time
	Kind string
	Card int
	Note string
	Dur  time.Duration
}

// Journey is one request's record. Appends take a short per-journey mutex
// (uncontended in practice: one request's events arrive from one goroutine
// at a time), and timestamps are taken inside the lock so a journey's
// event sequence is monotone by construction — the property the observe
// hammer asserts.
type Journey struct {
	id       uint64
	tenant   string
	key      string
	workload string
	rec      *Recorder

	mu        sync.Mutex
	start     time.Time
	deadline  time.Time
	slo       time.Duration
	events    []Event
	inline    [initialEvents]Event // events' first backing array
	truncated int
	card      int
	hops      int
	retries   int
	stolen    bool
	fallback  bool
	resolved  bool
	terminals int
	outcome   Outcome
	end       time.Time
}

// ID returns the journey's trace id (0 for nil).
func (j *Journey) ID() uint64 {
	if j == nil {
		return 0
	}
	return j.id
}

// Event appends a step stamped with the recorder's clock. Safe on nil.
func (j *Journey) Event(kind string, card int, note string) {
	j.EventDur(kind, card, note, 0)
}

// EventDur appends a step with an extent (e.g. a kernel pass). Safe on nil.
func (j *Journey) EventDur(kind string, card int, note string, dur time.Duration) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.appendLocked(Event{At: j.rec.now(), Kind: kind, Card: card, Note: note, Dur: dur}, false)
	j.mu.Unlock()
}

// EventAt appends a step at an explicit (virtual) time; the deterministic
// experiment models use it instead of the wall clock. Safe on nil.
func (j *Journey) EventAt(at time.Time, kind string, card int, note string) {
	j.EventDurAt(at, kind, card, note, 0)
}

// EventDurAt is EventAt with an extent. Safe on nil.
func (j *Journey) EventDurAt(at time.Time, kind string, card int, note string, dur time.Duration) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.appendLocked(Event{At: at, Kind: kind, Card: card, Note: note, Dur: dur}, false)
	j.mu.Unlock()
}

// appendLocked records an event, updating the derived anomaly flags. The
// event list grows up to MaxEvents, whose last slot is reserved for the
// terminal event so a chatty journey still ends with exactly one "end:".
// Events racing in after resolution (e.g. an adopt note racing the adopted
// lane's own completion) are dropped, so the terminal event is always last.
func (j *Journey) appendLocked(e Event, terminal bool) {
	if j.resolved && !terminal {
		return
	}
	if e.Card >= 0 {
		j.card = e.Card
	}
	switch e.Kind {
	case "retry":
		j.retries++
	case "steal":
		j.stolen = true
	case "adopt":
		j.hops++
	case "fallback":
		j.fallback = true
	}
	if !terminal && len(j.events) >= j.rec.cfg.MaxEvents-1 {
		j.truncated++
		return
	}
	j.events = append(j.events, e)
}

// Finish resolves the journey with its terminal outcome at the recorder's
// clock. The first call wins; later calls are counted as duplicate
// terminals and dropped. Safe on nil.
func (j *Journey) Finish(o Outcome, note string) {
	if j == nil {
		return
	}
	j.FinishAt(j.rec.now(), o, note)
}

// FinishAt is Finish at an explicit (virtual) time.
func (j *Journey) FinishAt(at time.Time, o Outcome, note string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.resolved {
		j.mu.Unlock()
		j.rec.duplicateTerminal()
		return
	}
	j.resolved = true
	j.terminals++
	j.outcome = o
	j.end = at
	j.appendLocked(Event{At: at, Kind: o.endKind(), Card: -1, Note: note}, true)
	anomaly := j.anomalyLocked()
	j.mu.Unlock()
	j.rec.resolve(j, at, anomaly)
}

// anomalyLocked returns why the journey is anomalous ("" = a plain
// completion, the only class subject to 1-in-N sampling).
func (j *Journey) anomalyLocked() string {
	var why []string
	if j.outcome != OutcomeCompleted {
		why = append(why, j.outcome.String())
	}
	if j.stolen || j.hops > 0 {
		why = append(why, "stolen")
	}
	if j.retries > 0 {
		why = append(why, "retried")
	}
	if j.fallback {
		why = append(why, "fallback")
	}
	if j.outcome == OutcomeCompleted && j.slo > 0 && j.rec != nil {
		if j.end.Sub(j.start) > time.Duration(float64(j.slo)*j.rec.cfg.SLOFraction) {
			why = append(why, "slow")
		}
	}
	return strings.Join(why, ",")
}

// writeSpan records a resolved journey into tr as one async span keyed by
// the journey id: every step but the terminal becomes a mark, and the
// outcome rides on the end event. Safe on a nil tracer.
func (j *Journey) writeSpan(tr *telemetry.Tracer) {
	if tr == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	last := len(j.events) - 1 // the terminal: always the final event
	marks := make([]telemetry.Mark, last)
	for i, e := range j.events[:last] {
		marks[i] = telemetry.Mark{At: e.At, Name: e.Kind, Args: telemetry.Args{
			"card": e.Card, "note": e.Note, "dur_us": e.Dur.Microseconds()}}
	}
	tr.Span(strconv.FormatUint(j.id, 10), "request", j.start, j.end,
		telemetry.Args{"key": j.key, "workload": j.workload, "tenant": j.tenant}, marks,
		telemetry.Args{"outcome": j.outcome.String(), "note": j.events[last].Note,
			"anomaly": j.anomalyLocked()})
}

// Resolved reports whether a terminal outcome has been recorded.
func (j *Journey) Resolved() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resolved
}

// Outcome returns the terminal outcome (OutcomeUnknown while in flight).
func (j *Journey) Outcome() Outcome {
	if j == nil {
		return OutcomeUnknown
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.outcome
}

// Terminals returns how many terminal events were recorded — exactly one
// on a healthy journey; duplicates are dropped but this still reads 1.
func (j *Journey) Terminals() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminals
}

// Hops returns how many times the request was adopted by another card.
func (j *Journey) Hops() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hops
}

// Latency returns end-start (0 while unresolved).
func (j *Journey) Latency() time.Duration {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.resolved {
		return 0
	}
	return j.end.Sub(j.start)
}

// Anomaly returns the comma-joined anomaly reasons ("" for a plain
// completion). Meaningful once resolved.
func (j *Journey) Anomaly() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.anomalyLocked()
}

// Events returns a copy of the recorded steps.
func (j *Journey) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// EventView is the JSON shape of one journey step: time is microseconds
// since the journey began.
type EventView struct {
	TUS  float64 `json:"t_us"`
	Kind string  `json:"kind"`
	Card int     `json:"card"`
	Note string  `json:"note,omitempty"`
	DUS  float64 `json:"dur_us,omitempty"`
}

// View is the JSON shape of a journey as served at /journeys.
type View struct {
	ID        uint64      `json:"id"`
	Tenant    string      `json:"tenant,omitempty"`
	Key       string      `json:"key,omitempty"`
	Workload  string      `json:"workload,omitempty"`
	Outcome   string      `json:"outcome"`
	Anomaly   string      `json:"anomaly,omitempty"`
	Start     time.Time   `json:"start"`
	LatencyUS float64     `json:"latency_us"`
	SLOMS     float64     `json:"slo_ms,omitempty"`
	Card      int         `json:"card"`
	Hops      int         `json:"hops,omitempty"`
	Retries   int         `json:"retries,omitempty"`
	Fallback  bool        `json:"fallback,omitempty"`
	Truncated int         `json:"truncated_events,omitempty"`
	Events    []EventView `json:"events"`
}

// View renders the journey for export.
func (j *Journey) View() View {
	if j == nil {
		return View{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:        j.id,
		Tenant:    j.tenant,
		Key:       j.key,
		Workload:  j.workload,
		Outcome:   j.outcome.String(),
		Anomaly:   j.anomalyLocked(),
		Start:     j.start,
		LatencyUS: float64(j.end.Sub(j.start)) / float64(time.Microsecond),
		SLOMS:     float64(j.slo) / float64(time.Millisecond),
		Card:      j.card,
		Hops:      j.hops,
		Retries:   j.retries,
		Fallback:  j.fallback,
		Truncated: j.truncated,
		Events:    make([]EventView, 0, len(j.events)),
	}
	if !j.resolved {
		v.Outcome = "in-flight"
		v.LatencyUS = 0
	}
	for _, e := range j.events {
		v.Events = append(v.Events, EventView{
			TUS:  float64(e.At.Sub(j.start)) / float64(time.Microsecond),
			Kind: e.Kind,
			Card: e.Card,
			Note: e.Note,
			DUS:  float64(e.Dur) / float64(time.Microsecond),
		})
	}
	return v
}
