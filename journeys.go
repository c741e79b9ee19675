package phiopenssl

import (
	"io"

	"phiopenssl/internal/phitrace"
)

// JourneyRecorder collects per-request journey records — one timeline per
// request, accumulating door/route/seal/pass/terminal events as the request
// moves through admission, the fleet router, the batch scheduler and the
// worker pool — and resolves each into a tail-sampled ring: anomalous
// journeys (shed, expired, faulted, stolen, retried, or slower than a
// configurable fraction of their SLO) are always kept, normal completions
// are sampled 1-in-N. It also keeps per-tenant SLO burn-rate gauges
// (phitrace_slo_burn{tenant,window}) and an incident flight recorder that
// snapshots recent journeys plus registry state when something breaks
// (breaker open, brownout, fleet degraded, shed storm).
//
// Wire one recorder through every layer: BatchServerConfig.Journeys,
// FleetConfig.Journeys and AdmissionConfig.Journeys, plus
// Telemetry.Journeys to serve /journeys and /incidents over HTTP.
type JourneyRecorder = phitrace.Recorder

// JourneyConfig parameterizes a JourneyRecorder: ring size, sample rate,
// SLO-fraction anomaly threshold, burn windows and budget, incident buffer
// bounds, and the telemetry bundle its gauges register into.
type JourneyConfig = phitrace.Config

// Journey is one request's journey record.
type Journey = phitrace.Journey

// JourneyIncident is one incident flight-recorder snapshot.
type JourneyIncident = phitrace.Incident

// JourneyCounts is the recorder's sampling ledger: resolved, kept
// (anomalous and sampled), discarded, duplicate terminals, incidents.
type JourneyCounts = phitrace.Counts

// NewJourneyRecorder builds a journey recorder. Set cfg.Telemetry to the
// run's Telemetry bundle so the burn gauges and sampling counters land in
// its registry, and so every kept journey becomes its request's async span
// in the Chrome trace and incidents mark it; then also set
// Telemetry.Journeys = recorder to expose /journeys and /incidents.
func NewJourneyRecorder(cfg JourneyConfig) *JourneyRecorder {
	return phitrace.New(cfg)
}

// WriteJourneys writes r's kept journey ring as one JSON object (the
// /journeys payload).
func WriteJourneys(w io.Writer, r *JourneyRecorder) error {
	return r.WriteJourneys(w)
}

// WriteIncidents writes r's incident buffer as one JSON object (the
// /incidents payload).
func WriteIncidents(w io.Writer, r *JourneyRecorder) error {
	return r.WriteIncidents(w)
}
