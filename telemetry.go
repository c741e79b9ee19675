package phiopenssl

import (
	"io"
	"net/http"

	"phiopenssl/internal/telemetry"
)

// Telemetry bundles the two observability sinks a BatchServer can emit
// into: a lock-free metrics registry (counters, gauges, log-bucketed
// histograms with Prometheus-text and JSON exposition) and an optional
// trace recorder producing Chrome trace-event JSON viewable in Perfetto:
// kernel passes and their segments on worker tracks, faults and breaker
// transitions as instants, and — from a JourneyRecorder built on the same
// bundle — one async span per kept request journey. Pass one in
// BatchServerConfig.Telemetry to share a registry across servers or to
// enable tracing; a server built without one still keeps full metrics on
// a private registry, reachable through BatchServer.Telemetry().
type Telemetry = telemetry.Telemetry

// TelemetryRegistry is the metrics half of a Telemetry bundle.
type TelemetryRegistry = telemetry.Registry

// TelemetryTracer is the trace-recorder half of a Telemetry bundle.
type TelemetryTracer = telemetry.Tracer

// NewTelemetry returns a Telemetry with a metrics registry and no tracer
// (metrics only — the zero-overhead default for production serving).
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewTelemetryWithTrace returns a Telemetry that additionally records a
// bounded in-memory trace of up to capacity events (capacity <= 0 selects
// the default of 262144). Export the buffer with WriteTrace or the
// /trace endpoint of TelemetryHandler and open it in
// https://ui.perfetto.dev.
func NewTelemetryWithTrace(capacity int) *Telemetry {
	return telemetry.NewWithTrace(capacity)
}

// TelemetryHandler returns an http.Handler exposing t's live
// observability surface: /metrics (Prometheus text), /vars (JSON),
// /trace (Chrome trace-event JSON) and /debug/pprof/.
func TelemetryHandler(t *Telemetry) http.Handler { return telemetry.Handler(t) }

// WriteMetrics writes t's registry in Prometheus text exposition format.
func WriteMetrics(w io.Writer, t *Telemetry) error {
	return t.Reg().WritePrometheus(w)
}

// WriteTrace writes t's buffered trace as Chrome trace-event JSON.
func WriteTrace(w io.Writer, t *Telemetry) error {
	return t.Trace().Export(w)
}
