package phiopenssl

import (
	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/phifleet"
	"phiopenssl/internal/phiserve"
)

// BatchServer is the streaming batch scheduler: it accepts single RSA
// private-key requests — the shape of live server traffic — and
// aggregates them per key into RSABatchSize-lane batches for the vector
// kernels, dispatching each batch when its sixteenth request arrives or
// when the fill deadline fires, whichever is first. Partial batches pad
// unused lanes, so the deadline is the knob trading latency against lane
// utilization (see internal/phiserve and experiment A6).
type BatchServer = phiserve.Server

// BatchServerConfig parameterizes a BatchServer: machine, worker count,
// fill deadline, dispatch-queue depth, and the kernel execution backend
// (BackendSim or BackendDirect; the zero value resolves to direct).
type BatchServerConfig = phiserve.Config

// BatchResult is the outcome of one scheduled request: the plaintext (or
// error), the fill of the batch that served it, and its simulated cost.
type BatchResult = phiserve.Result

// BatchServerStats is an aggregate snapshot: request counters, batch
// fill-rate histogram, queue depth, amortized cycles/op, simulated
// throughput, and the resilience counters (faults detected, retries,
// stalls, respawns, fallback ops, breaker state and trips).
type BatchServerStats = phiserve.Stats

// BatchServerResilience is the server's survival policy for a faulty
// coprocessor: retry budget and backoff for fault-detected lanes, the
// stall-detection execution timeout, circuit-breaker parameters, and
// (for tests and experiments) deterministic fault injection. The zero
// value gives sensible defaults; execution is always verified — every
// plaintext a BatchServer releases passed the Bellcore re-encryption
// check — regardless of this policy.
type BatchServerResilience = phiserve.Resilience

// FaultInjection deterministically corrupts a simulated vector unit:
// seeded lane bit-flips, transient whole-kernel failures, worker stalls,
// or an explicit scripted schedule of pass outcomes. Attach one to a
// BatchServer via BatchServerResilience.Faults to rehearse hardware
// failures; identical seeds replay identical fault schedules.
type FaultInjection = faultsim.Config

// FaultPassOutcome is one scripted kernel-pass outcome for
// FaultInjection.Script.
type FaultPassOutcome = faultsim.PassOutcome

// Scripted pass outcomes for FaultInjection.Script.
const (
	// FaultPassOK is a clean kernel pass.
	FaultPassOK = faultsim.PassOK
	// FaultPassKernelFail aborts the pass with no results (transient
	// kernel failure).
	FaultPassKernelFail = faultsim.PassKernelFail
	// FaultPassStall wedges the executing worker (recovered by the
	// resilience policy's ExecTimeout).
	FaultPassStall = faultsim.PassStall
)

// Errors surfaced by the BatchServer.
var (
	// ErrServerCanceled marks requests abandoned by context cancellation.
	ErrServerCanceled = phiserve.ErrCanceled
	// ErrServerClosed reports a Submit after Close.
	ErrServerClosed = phiserve.ErrClosed
	// ErrServerNotStarted reports a Submit before Start.
	ErrServerNotStarted = phiserve.ErrNotStarted
)

// NewBatchServer validates cfg (zero values get defaults: knc.Default()
// machine, 4 workers, 2ms fill deadline, 2x workers queue depth) and
// builds a stopped server; call Start, Submit/Do, then Close.
func NewBatchServer(cfg BatchServerConfig) (*BatchServer, error) {
	return phiserve.New(cfg)
}

// Fleet serves one host's traffic across several simulated coprocessor
// cards — the paper's deployment premise of a host driving multiple Xeon
// Phi boards. Each card is an independent BatchServer (own worker pool,
// circuit breaker, fault schedule); keys route by consistent hashing, hot
// keys spread over replicas, deadline-fired partial batches and
// fault-retried lanes migrate to the least-loaded healthy sibling, and
// Submit fails over past a card whose breaker is open. Submit/Do/Start/
// Close/Stats mirror BatchServer, so callers swap one card for a fleet
// without restructuring (see internal/phifleet and experiment A8).
type Fleet = phifleet.Fleet

// FleetConfig parameterizes a Fleet: card count, the per-card
// BatchServerConfig template (fault seeds are re-derived per card so
// sibling cards fail independently), hot-key replica count, hash-ring
// vnodes, and the steal hop budget.
type FleetConfig = phifleet.Config

// FleetStats is the two-level snapshot: every card's BatchServerStats,
// the fleet aggregate, and the router's own steal/failover/hot-key
// counters.
type FleetStats = phifleet.Stats

// NewFleet validates cfg (zero values get defaults: 2 cards, 2 replicas,
// 16 vnodes, 3 steal hops) and builds a stopped fleet; call Start,
// Submit/Do, then Close.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	return phifleet.New(cfg)
}
