// Package telemetry is the observability substrate for the batch-serving
// pipeline: a lock-free metrics registry (counters, gauges, log-bucketed
// histograms) with Prometheus-text and expvar-style JSON exposition, and a
// bounded trace recorder that emits Chrome trace-event JSON viewable in
// Perfetto (one track per serving worker, kernel passes as slices,
// fault/retry/breaker transitions as instant events, and request
// lifetimes as async spans, which the journey recorder writes).
//
// Everything in this package is nil-safe: a nil *Registry hands out nil
// metric handles, and every method on a nil handle is a no-op. Callers
// therefore instrument unconditionally and pay (almost) nothing when
// telemetry is off — the overhead budget for the enabled path is <2%
// (measured by internal/bench).
//
// The package deliberately imports nothing from the rest of the module so
// that every layer (vpu, knc, phiserve, rsakit, the facade) can
// depend on it without cycles.
package telemetry

import "io"

// JourneySource serves per-request journey records and incident snapshots
// as JSON. It is an interface (rather than a concrete type) because the
// journey recorder lives in internal/phitrace, which depends on this
// package — the HTTP handler only needs the two Write methods.
type JourneySource interface {
	// WriteJourneys writes the sampled journey ring as one JSON object.
	WriteJourneys(w io.Writer) error
	// WriteIncidents writes the incident flight-recorder buffer as one
	// JSON object.
	WriteIncidents(w io.Writer) error
}

// Telemetry bundles the sinks a component may emit into. Any field may be
// nil: a nil Registry drops metrics, a nil Tracer drops trace events, a
// nil Journeys leaves /journeys and /incidents empty. A nil *Telemetry
// drops everything.
type Telemetry struct {
	// Registry receives counters, gauges and histograms.
	Registry *Registry
	// Tracer receives trace spans and instant events.
	Tracer *Tracer
	// Journeys, when set, backs the /journeys and /incidents endpoints.
	Journeys JourneySource
}

// New returns a Telemetry with a metrics registry and no tracer.
func New() *Telemetry {
	return &Telemetry{Registry: NewRegistry()}
}

// NewWithTrace returns a Telemetry with a metrics registry and a trace
// recorder buffering up to capacity events (capacity <= 0 selects the
// default, DefaultTraceCapacity). The tracer's drop counter is registered
// as telemetry_trace_dropped_total.
func NewWithTrace(capacity int) *Telemetry {
	t := &Telemetry{Registry: NewRegistry(), Tracer: NewTracer(capacity)}
	t.Tracer.Instrument(t.Registry)
	return t
}

// Reg returns the registry, or nil if t is nil.
func (t *Telemetry) Reg() *Registry {
	if t == nil {
		return nil
	}
	return t.Registry
}

// Trace returns the tracer, or nil if t is nil.
func (t *Telemetry) Trace() *Tracer {
	if t == nil {
		return nil
	}
	return t.Tracer
}

// JourneySrc returns the journey source, or nil if t is nil.
func (t *Telemetry) JourneySrc() JourneySource {
	if t == nil {
		return nil
	}
	return t.Journeys
}
