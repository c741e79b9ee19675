package phiopenssl

import (
	"phiopenssl/internal/phiadmit"
	"phiopenssl/internal/phiserve"
)

// AdmissionController is the SLO-aware front door for a BatchServer or a
// Fleet: every admitted request carries an absolute deadline (its
// tenant's SLO) that travels through the scheduler, the dispatch queue,
// work stealing and the worker pool, so a lane that expires while queued
// is dropped at the next checkpoint instead of burning a kernel pass.
// When the backend's delay estimate says a request cannot finish inside
// its budget the controller sheds it at the door (ErrShedOverload — one
// cheap rejection instead of one timed-out deadline), and past the
// brownout threshold per-tenant weighted fair queuing caps each tenant at
// its share (ErrShedTenant). See internal/phiadmit and experiment A9.
type AdmissionController = phiadmit.Controller

// AdmissionBackend is the serving tier an AdmissionController fronts;
// both *BatchServer and *Fleet satisfy it.
type AdmissionBackend = phiadmit.Backend

// AdmissionConfig parameterizes an AdmissionController: default SLO,
// tenant table with weights, brownout capacity and hysteresis thresholds,
// and the estimate-error margin.
type AdmissionConfig = phiadmit.Config

// AdmissionTenant declares one traffic class: id, fair-share weight, and
// an optional per-tenant SLO override.
type AdmissionTenant = phiadmit.Tenant

// AdmissionStats snapshots the controller's door decisions: brownout
// state and per-tenant admitted/shed counts.
type AdmissionStats = phiadmit.Stats

// SubmitOpts carries admission metadata (tenant id, SLO deadline, and a
// journey begun upstream) into BatchServer.SubmitWork and
// Fleet.SubmitWork; the zero value submits with none.
type SubmitOpts = phiserve.SubmitOpts

// RetryBudget is the server-wide token bucket bounding how much extra
// work fault recovery may generate: completions earn fractional tokens,
// every retried lane spends one, so retry traffic is capped at a fraction
// of goodput and cannot amplify an overload. Share one across a Fleet via
// FleetConfig.RetryBudget.
type RetryBudget = phiserve.RetryBudget

// NewRetryBudget builds a budget earning ratio tokens per completion
// (default 0.1) holding at most burst tokens (default 2x RSABatchSize).
func NewRetryBudget(ratio float64, burst int) *RetryBudget {
	return phiserve.NewRetryBudget(ratio, burst)
}

// Errors surfaced by the admission layer.
var (
	// ErrShedOverload rejects a request whose SLO cannot be met: the
	// backend's delay estimate already exceeds the whole budget.
	ErrShedOverload = phiadmit.ErrShedOverload
	// ErrShedTenant rejects a request whose tenant is over its weighted
	// fair share during a brownout.
	ErrShedTenant = phiadmit.ErrShedTenant
	// ErrServerDeadlineExceeded marks requests dropped because their SLO
	// deadline passed before execution (at the door or at an in-queue
	// checkpoint).
	ErrServerDeadlineExceeded = phiserve.ErrDeadlineExceeded
	// ErrServerOverloaded marks requests shed because their batch sealed
	// with the dispatch queue and the overflow behind it both full.
	ErrServerOverloaded = phiserve.ErrOverloaded
)

// NewAdmissionController builds a controller in front of backend (a
// *BatchServer or a *Fleet, both satisfy phiadmit.Backend). The backend
// is Started and Closed by its owner, not the controller.
func NewAdmissionController(backend phiadmit.Backend, cfg AdmissionConfig) *AdmissionController {
	return phiadmit.New(backend, cfg)
}
