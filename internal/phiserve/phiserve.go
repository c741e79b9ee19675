// Package phiserve is the streaming batch scheduler: it accepts single
// crypto operations one at a time — the shape of live server traffic —
// and aggregates them per workload into vbatch.BatchSize-lane batches for
// the lane-per-operation vector kernels, which ablation A4 shows are
// cheaper per operation than the per-op (horizontal) engine once the
// lanes are full.
//
// The scheduler is generic over phiwork.Workload: the original RSA
// private op, PSS signing, the two DHE exponentiations and the cheap
// public op all ride the same pipeline. Aggregation is by Workload
// identity — requests carrying the same Workload instance (same key,
// same kind) fill the same batch — and execution defers to the
// workload's ExecuteBatch, so the scheduler never knows which kernel
// family a batch runs. Dispatch is class-aware: each class has its own
// sealed list and its own backpressure bound, and a free worker takes the
// oldest light batch (public ops) before any heavy one, so a flood of
// heavy private-op batches cannot starve them past their SLO.
//
// The scheduling policy is the classic batch-server trade: a request
// that arrives into an empty per-workload buffer opens a batch and arms
// a fill deadline; the batch seals when the sixteenth request
// arrives or when the deadline fires, whichever is first. A partial
// batch costs a full kernel pass in simulated cycles, because the card
// runs whole 16-lane vectors (the direct backend's host work scales with
// the live lanes, but it charges the full pass) — the deadline is
// literally the knob trading latency (dispatch early, waste lanes)
// against throughput (wait for fills, queue longer).
//
// Each server owns one card queue (queue.go): a mutex-guarded structure
// holding every workload's open batch and a FIFO list of sealed batches
// per class. SubmitWork and Adopt append lanes under the lock, the fill
// deadline's timer seals a partial batch directly, and long-lived
// workers, each owning a private vector unit, pull sealed batches from
// it. A class with 2*QueueDepth sealed batches waiting blocks its
// submitters (backpressure); Close seals the open batches and lets the
// workers drain the queue; cancellation fails what is still queued.
// Results return asynchronously on a per-request channel together with
// the simulated per-request latency; Stats aggregates queue depth, the
// batch fill-rate histogram, cycles/op, simulated throughput and the
// resilience counters, with per-workload families alongside.
//
// Execution is verified and survivable (see resilience.go): verifying
// workloads run the Bellcore re-encryption check per lane, transient
// fault-detected lanes retry immediately on fresh batches and degrade to
// the workload's scalar path after MaxRetries, stalled workers are
// detected by an execution timeout and respawned, and a
// circuit breaker trips on the rolling pass-fault rate — while open,
// submissions bypass the vector path entirely and half-open probe
// batches test recovery.
package phiserve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/phitrace"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
	"phiopenssl/internal/telemetry"
	"phiopenssl/internal/vpu"
)

// BatchSize is the number of lanes in one batch (one request per lane).
const BatchSize = rsakit.BatchSize

// Errors returned by SubmitWork or delivered in Result.Err.
var (
	// ErrCanceled marks requests abandoned by context cancellation:
	// requests still waiting in an open batch or in a sealed batch that
	// no worker had taken yet. In-flight batches are drained, so
	// their requests complete normally.
	ErrCanceled = errors.New("phiserve: canceled")
	// ErrClosed reports a SubmitWork after Close.
	ErrClosed = errors.New("phiserve: server closed")
	// ErrNotStarted reports a SubmitWork before Start.
	ErrNotStarted = errors.New("phiserve: server not started")
	// ErrDeadlineExceeded marks requests whose SLO deadline expired before
	// a kernel pass could serve them: rejected at SubmitWork (deadline already
	// past), dropped when their batch sealed, or dropped at dequeue / the
	// pre-pass filter. The lane never burns card cycles.
	ErrDeadlineExceeded = errors.New("phiserve: deadline exceeded before execution")
	// ErrOverloaded marks requests shed because their batch sealed with
	// QueueDepth+OverflowCap batches of its class already waiting in the
	// card queue: the dispatch queue and the overflow behind it are both
	// full, so admitting more work would only grow an unserveable backlog.
	ErrOverloaded = errors.New("phiserve: dispatch overflow full, request shed")
)

// Config parameterizes a Server.
type Config struct {
	// Machine is the simulated card; the zero value means knc.Default().
	Machine knc.Machine
	// Workers is the number of concurrent batch executors (simulated
	// hardware threads running kernel passes). Defaults to 4, clamped to
	// the machine's capacity.
	Workers int
	// FillDeadline is the host time a partial batch waits for more
	// requests before dispatching. Defaults to 2ms.
	FillDeadline time.Duration
	// QueueDepth is the dispatch-queue depth of each class's sealed list
	// in the card queue: a batch sealed with QueueDepth of its class
	// already waiting is an overflow (Stats.OverflowBatches), and a class
	// with 2*QueueDepth waiting blocks SubmitWork (backpressure) and makes
	// Adopt give its ops back. The light and heavy classes are bounded
	// separately. Defaults to 2*Workers.
	QueueDepth int
	// OverflowCap bounds each class's overflow, the sealed batches beyond
	// its first QueueDepth. Backpressure already stops new submissions of
	// a class at QueueDepth overflow batches, but deadline seals of
	// already-open workloads and adopted lanes never block and can push
	// past that; a batch sealed with QueueDepth+OverflowCap of its class
	// waiting is shed with ErrOverloaded instead of growing an
	// unserveable backlog. Defaults to 8*QueueDepth.
	OverflowCap int
	// Backend selects how workers execute kernel passes:
	// vpu.BackendDirect (calibrated direct limb arithmetic, the serving
	// default) or vpu.BackendSim (the interpreted cycle-exact unit). Both
	// report identical simulated cycles; direct is several times faster in
	// host wall time. The zero value (vpu.BackendDefault) resolves via the
	// PHIOPENSSL_BACKEND environment variable ("sim" or "direct") and then
	// falls back to direct.
	Backend vpu.BackendKind
	// Resilience configures verified execution's retry/fallback policy,
	// the circuit breaker, the stall timeout and (for tests/benches) fault
	// injection. The zero value gives the defaults documented on the
	// Resilience type; execution is always verified regardless.
	Resilience Resilience
	// Telemetry attaches external observability sinks. A non-nil Registry
	// receives the scheduler's metric set (also served by
	// telemetry.Handler); a non-nil Tracer additionally records passes and
	// fill windows as track slices and faults, retries and breaker
	// transitions as instants (request spans come from a Journeys recorder
	// on the same bundle). Nil (the default) means no tracing; metrics
	// then live on a private registry so Stats keeps working, reachable
	// via Server.Telemetry.
	Telemetry *telemetry.Telemetry
	// Labels are key,value pairs stamped on every metric this server
	// registers (e.g. "card","0"). They are mandatory when several servers
	// share one registry: unlabeled duplicates would silently merge the
	// stateful counters, and the registry panics on the duplicate
	// function-backed metrics. The multi-card fleet labels each card.
	Labels []string
	// Redispatch, when non-nil, is offered work this server would rather
	// hand off than serve locally (never under the card lock):
	// deadline-fired partial batches,
	// fault-detected lanes awaiting a retry, and requests admitted while
	// the breaker is open. The hook (the fleet's work-stealing router)
	// returns how many operations, from the front of the slice, it moved
	// to a sibling server via Adopt; the rest stay here. See steal.go.
	Redispatch RedispatchFunc
	// Journeys, when non-nil, records a per-request journey (batch seal,
	// dequeue, kernel pass with its segment breakdown, retries,
	// fallback, expiry checkpoints) resolved with exactly one terminal
	// outcome at finish, and receives incident triggers on breaker
	// transitions and retry-budget exhaustion. A journey begun upstream
	// (the admission door or the fleet router) arrives in SubmitOpts
	// instead; requests adopted from a sibling card keep the journey they
	// came with.
	Journeys *phitrace.Recorder
	// Card is this server's index in a multi-card fleet, stamped on
	// journey events so a steal hop is visible as a card change, and the
	// base of its trace tracks (see ctl). 0 for a standalone server; the
	// fleet sets it.
	Card int
}

func (c Config) withDefaults() Config {
	if c.Machine == (knc.Machine{}) {
		c.Machine = knc.Default()
	}
	if c.Workers < 1 {
		c.Workers = 4
	}
	if max := c.Machine.MaxThreads(); c.Workers > max {
		c.Workers = max
	}
	if c.FillDeadline <= 0 {
		c.FillDeadline = 2 * time.Millisecond
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.OverflowCap < 1 {
		c.OverflowCap = 8 * c.QueueDepth
	}
	if c.Backend == vpu.BackendDefault {
		if k, ok := vpu.ParseBackend(os.Getenv("PHIOPENSSL_BACKEND")); ok && k != vpu.BackendDefault {
			c.Backend = k
		} else {
			c.Backend = vpu.BackendDirect
		}
	}
	c.Resilience = c.Resilience.WithDefaults()
	return c
}

// Result is the outcome of one request.
type Result struct {
	// M is the workload's output for this lane (the plaintext c^D mod N
	// for rsa-priv, the signature rep for pss-sign, g^x or the shared
	// secret for the DHE kinds, m^E for public); valid when Err is nil.
	// On verifying workloads every value released here passed the
	// workload's check (the Bellcore re-encryption for the private-op
	// kinds) on the path that produced it.
	M bn.Nat
	// Err is ErrCanceled for abandoned requests, a permanent per-lane
	// error (e.g. a degenerate DHE shared secret), or the batch-level
	// failure that poisoned this request's batch.
	Err error
	// BatchFill is the number of live lanes in the batch that served this
	// request (1..BatchSize; always 1 on the scalar fallback path).
	BatchFill int
	// BatchCycles is the simulated cycle cost of the kernel pass (or
	// scalar op) that served this request.
	BatchCycles float64
	// SimLatency is this request's service latency in seconds on the
	// simulated machine: one kernel pass at the server's worker count
	// (queueing delay is host-side, in phiserve_request_wall_seconds).
	SimLatency float64
	// Fallback reports that the request was served by the workload's
	// scalar path: the breaker was open, or retries were exhausted.
	Fallback bool
	// Attempts is the number of failed vector passes this request survived
	// before the pass (or fallback) that resolved it; 0 on a clean first
	// pass.
	Attempts int
}

// request is one queued operation. A request's pointer can travel between
// servers (the fleet's work stealing moves it via Adopt), so everything
// needed to resolve it rides inside: the journey keeps its record in one
// ring across cards, and the done CAS keeps resolution exactly-once no
// matter how many cards race.
type request struct {
	work phiwork.Workload
	in   phiwork.Input
	at   time.Time    // SubmitWork time, for the wall-latency histogram
	resp chan Result  // buffered(1); receives exactly one Result
	done atomic.Bool  // set by Server.finish; guards exactly-once delivery
	hops atomic.Int32 // Adopt count, bounding steal ping-pong

	// Admission metadata (SubmitOpts). deadline is the absolute SLO
	// deadline — zero means none; a lane past it is dropped at the next
	// checkpoint (batch seal, dequeue, pre-pass filter) instead
	// of burning card cycles. ctx is the submitter's context, checked at
	// the same checkpoints so an abandoned request frees its lane.
	deadline time.Time
	ctx      context.Context
	// journey is the request's phitrace record (nil when journeys are
	// off). It carries its own recorder, so a stolen request resolves
	// into the right ring no matter which card finishes it.
	journey *phitrace.Journey
}

// expiredAt reports whether the request's deadline (if any) has passed.
func (q *request) expiredAt(now time.Time) bool {
	return !q.deadline.IsZero() && now.After(q.deadline)
}

// ctxDone reports whether the submitter abandoned the request.
func (q *request) ctxDone() bool {
	return q.ctx != nil && q.ctx.Err() != nil
}

// batch is a sealed batch: the unit a worker pulls from the card queue.
type batch struct {
	work phiwork.Workload
	reqs []*request
	// fallback routes the batch straight to the scalar path (breaker open
	// at admission).
	fallback bool
	// attempts counts execution attempts already spent on this batch's
	// requests (stall-timeout re-dispatches).
	attempts int
	// enqueuedAt stamps the push onto its sealed list, for the queue-wait
	// histogram.
	enqueuedAt time.Time
}

// Server is the streaming batch scheduler. Requests for the same
// workload must be submitted with the same phiwork.Workload instance —
// the scheduler aggregates by identity (the phiwork.*For caches are the
// canonicalization point), the natural shape for a server holding a
// fixed key set.
type Server struct {
	cfg Config

	ctx    context.Context
	cancel context.CancelFunc

	// breaker gates the vector path on the rolling fault rate.
	breaker *breaker
	// release is closed by Close before the workers drain: workers parked
	// on an injected stall wake up and serve their leftovers via the
	// scalar path so the drain can finish.
	release chan struct{}
	// workerSeq numbers worker states for per-worker fault seeds;
	// respawned workers get fresh numbers (fresh schedules).
	workerSeq atomic.Int64
	// passWall is the EWMA of recent heavy-class kernel-pass host wall
	// times (float64 bits), feeding EstimatedDelay; zero until the first
	// pass completes. Light passes are excluded — they are an order of
	// magnitude cheaper and would drag the heavy sojourn estimate down.
	passWall atomic.Uint64
	// waitEWMA is the EWMA of the oldest lane's submit-to-pass-start wait
	// at each heavy pass (float64 seconds bits), and waitAt the host time
	// (UnixNano) of its last observation: the measured half of
	// EstimatedDelay.
	waitEWMA atomic.Uint64
	waitAt   atomic.Int64

	// mu guards the lifecycle flags and the card queue (queue.go).
	mu      sync.Mutex
	started bool
	closed  bool
	// open is each workload's open batch.
	open map[phiwork.Workload]*pending
	// sealed is each class's FIFO list of sealed batches, oldest first.
	sealed [2][]*batch
	// room[c], when non-nil, is closed when class c drops below its
	// backpressure bound, waking blocked submitters.
	room [2]chan struct{}
	// inFlight counts SubmitWork calls past the closed check, so Close
	// seals the open batches only once each has enqueued or given up.
	inFlight sync.WaitGroup

	// sealing counts batches taken out of open and not yet pushed, so
	// Close starts the drain only once every one of them is queued.
	sealing sync.WaitGroup
	// wake carries one token per push to an idle worker (buffered to
	// Workers, so a push never blocks); drained is closed by Close once no
	// seal can reach the queue anymore.
	wake    chan struct{}
	drained chan struct{}
	// workers tracks the worker loops and the cancellation sweep, zombies
	// the executions that overran ExecTimeout (and every monitored pass).
	// stopSweep unschedules the sweep.
	workers   sync.WaitGroup
	zombies   sync.WaitGroup
	stopSweep func() bool

	// tel is the server's telemetry bundle: the caller's, or a private
	// metrics-only bundle so the registry (and hence Stats) always exists.
	tel    *telemetry.Telemetry
	tracer *telemetry.Tracer

	stats *statsAcc
}

// New validates cfg (applying defaults) and builds a stopped server; call
// Start before SubmitWork.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Machine.MaxThreads() < 1 {
		return nil, fmt.Errorf("phiserve: machine %q has no hardware threads", cfg.Machine.Name)
	}
	r := cfg.Resilience
	tel := cfg.Telemetry
	if tel == nil || tel.Registry == nil {
		// Stats is a view over the registry, so the server always carries
		// one; without caller-provided telemetry it stays private (and a
		// caller-provided Tracer without a Registry still records).
		priv := telemetry.NewRegistry()
		if tel == nil {
			tel = &telemetry.Telemetry{Registry: priv}
		} else {
			tel = &telemetry.Telemetry{Registry: priv, Tracer: tel.Tracer}
		}
	}
	s := &Server{
		cfg: cfg,
		breaker: newBreaker(r.BreakerWindow, r.BreakerThreshold,
			r.BreakerMinSamples, r.BreakerCooldown),
		release: make(chan struct{}),
		open:    make(map[phiwork.Workload]*pending),
		wake:    make(chan struct{}, cfg.Workers),
		drained: make(chan struct{}),
		tel:     tel,
		tracer:  tel.Tracer,
		stats:   newStatsAcc(tel.Registry, cfg.Labels),
	}
	s.breaker.onTransition = s.breakerTransition
	s.tel.Registry.CounterFunc("phiserve_breaker_trips_total",
		"closed->open (and failed-probe) breaker transitions",
		func() float64 { _, trips := s.breaker.snapshot(); return float64(trips) },
		cfg.Labels...)
	s.tel.Registry.GaugeFunc("phiserve_estimated_delay_seconds",
		"sojourn estimate for a newly admitted request (fill wait + backlog drain + one pass)",
		func() float64 { return s.EstimatedDelay().Seconds() }, cfg.Labels...)
	if r.Budget != nil {
		s.tel.Registry.GaugeFunc("phiserve_retry_budget_tokens",
			"tokens available in the shared fault-retry budget",
			func() float64 { return r.Budget.Tokens() }, cfg.Labels...)
	}
	return s, nil
}

// batchDead reports whether no lane of b is worth executing anymore:
// every request is already resolved, canceled, or past its deadline.
func (s *Server) batchDead(b *batch) bool {
	now := time.Now()
	for _, q := range b.reqs {
		if !q.done.Load() && !q.ctxDone() && !q.expiredAt(now) {
			return false
		}
	}
	return true
}

// Telemetry returns the server's telemetry bundle: the one supplied in
// Config, or the private metrics-only bundle the server built. Serving
// telemetry.Handler(s.Telemetry()) exposes the live /metrics, /vars and
// /trace endpoints for this server.
func (s *Server) Telemetry() *telemetry.Telemetry { return s.tel }

// breakerTransition is the breaker's state-change hook: it keeps the
// breaker-state gauge current and drops an instant event on the control
// track. Runs under the breaker's lock — it must not call back into it,
// which is why the incident trigger runs on its own goroutine: the
// trigger snapshots fleet stats, and those read the breaker.
func (s *Server) breakerTransition(from, to breakerState) {
	s.stats.breakerGauge.Set(float64(to))
	s.tracer.Instant(s.ctl(), "breaker-"+to.String(),
		telemetry.Args{"from": from.String()})
	if r := s.cfg.Journeys; r != nil {
		go r.Trigger("breaker-"+to.String(), map[string]any{
			"card": s.cfg.Card, "from": from.String(),
		})
	}
}

// JourneyOutcome maps a Result error to its journey terminal outcome; the
// admission and fleet layers reuse it for requests they resolve at their
// own doors.
func JourneyOutcome(err error) phitrace.Outcome {
	switch {
	case err == nil:
		return phitrace.OutcomeCompleted
	case errors.Is(err, ErrDeadlineExceeded):
		return phitrace.OutcomeExpired
	case errors.Is(err, ErrOverloaded):
		return phitrace.OutcomeShedOverflow
	case errors.Is(err, ErrCanceled), errors.Is(err, context.Canceled),
		errors.Is(err, ErrClosed), errors.Is(err, ErrNotStarted):
		return phitrace.OutcomeCanceled
	default:
		return phitrace.OutcomeFaulted
	}
}

// finish resolves a request exactly once: with stalled-batch respawns and
// retried passes, more than one execution path can race to answer the
// same request, and only the first wins. As the single resolution point
// it also owns per-request accounting, all of it done before the result
// is sent, so a caller reading Stats on receipt sees its own request
// counted: the completed/failed counters (total and per-workload), the
// wall- and sim-latency histograms, the fallback counters of a
// scalar-served result, the checkpoint counter (canceled, expired or
// shed lanes; nil for none) of the winning resolution, and the terminal
// of the request's journey.
func (s *Server) finish(q *request, res Result, checkpoint *telemetry.Counter) {
	if !q.done.CompareAndSwap(false, true) {
		return
	}
	if checkpoint != nil {
		checkpoint.Inc()
	}
	if res.Err != nil {
		s.stats.failed.Inc()
	} else {
		s.stats.completed.Inc()
		s.stats.workload(q.work.Kind()).completed.Inc()
		s.stats.wallLatency.Observe(time.Since(q.at).Seconds())
		s.stats.simLatency.Observe(res.SimLatency)
		if res.Fallback {
			s.stats.fallbackOps.Inc()
			s.stats.fallbackCycles.Add(res.BatchCycles)
		}
		// Successful work funds future fault recovery (see RetryBudget).
		s.cfg.Resilience.Budget.Deposit(1)
	}
	if q.journey != nil {
		note := ""
		if res.Err != nil {
			note = res.Err.Error()
		} else if res.BatchFill > 0 {
			note = "fill=" + strconv.Itoa(res.BatchFill)
		}
		q.journey.Finish(JourneyOutcome(res.Err), note)
	}
	q.resp <- res
}

// dropDeadLanes filters a request slice down to the lanes still worth
// executing: already-resolved lanes are skipped silently; canceled and
// deadline-expired lanes are resolved (and counted) here. Every point
// that is about to spend card time on a slice runs it — batch seal, the
// dequeue's dead-batch check, the pre-pass filter, the retry loop and
// the scalar path — so a dead lane can never reach kernel execution, for
// any workload class. checkpoint names the call site on the dropped
// lane's journey, answering "which of the checkpoints caught it".
func (s *Server) dropDeadLanes(reqs []*request, checkpoint string) []*request {
	now := time.Now()
	live := make([]*request, 0, len(reqs))
	for _, q := range reqs {
		switch {
		case q.done.Load():
		case q.ctxDone():
			q.journey.Event("checkpoint", s.cfg.Card, checkpoint)
			s.finish(q, Result{Err: ErrCanceled}, s.stats.canceledLanes)
		case q.expiredAt(now):
			q.journey.Event("checkpoint", s.cfg.Card, checkpoint)
			s.finish(q, Result{Err: ErrDeadlineExceeded}, s.stats.expiredLanes)
		default:
			live = append(live, q)
		}
	}
	return live
}

// journeyNote builds an event note only when some lane actually carries a
// journey, so journey-off runs (and adopted-lane-free hot paths) skip the
// string formatting entirely.
func journeyNote(reqs []*request, build func() string) string {
	for _, q := range reqs {
		if q.journey != nil {
			return build()
		}
	}
	return ""
}

// observeDequeue stamps queue wait and the worker slot onto every
// journeyed lane the moment a worker takes the batch — before the
// dead-batch judgment, so even a batch about to be dropped records how
// long it queued.
func (s *Server) observeDequeue(slot int, b *batch) {
	note := journeyNote(b.reqs, func() string {
		wait := time.Duration(0)
		if !b.enqueuedAt.IsZero() {
			wait = time.Since(b.enqueuedAt)
		}
		return "slot=" + strconv.Itoa(slot) + " wait=" + wait.Round(time.Microsecond).String()
	})
	if note == "" {
		return
	}
	for _, q := range b.reqs {
		q.journey.Event("dequeue", s.cfg.Card, note)
	}
}

// ewmaAlpha weights the per-batch service-time estimate toward recent
// passes; at 0.25 the estimate settles within a handful of batches after
// a load or key-size shift.
const ewmaAlpha = 0.25

// foldEWMA folds one sample (seconds) into the EWMA held in v as float64
// bits; the first sample seeds it.
func foldEWMA(v *atomic.Uint64, sample float64) {
	for {
		old := v.Load()
		prev := math.Float64frombits(old)
		next := sample
		if prev > 0 {
			next = ewmaAlpha*sample + (1-ewmaAlpha)*prev
		}
		if v.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// observePass folds one heavy kernel pass's host wall time into the
// rolling per-batch service-time estimate behind EstimatedDelay.
func (s *Server) observePass(d time.Duration) { foldEWMA(&s.passWall, d.Seconds()) }

// observeWait folds the wait of a heavy pass's oldest lane, from its
// submission to the pass start at `at`, into the measured wait behind
// EstimatedDelay.
func (s *Server) observeWait(wait time.Duration, at time.Time) {
	foldEWMA(&s.waitEWMA, wait.Seconds())
	s.waitAt.Store(at.UnixNano())
}

// EstimatedDelay is the telemetry-derived sojourn estimate for a newly
// admitted heavy-class request, the larger of a model and a measurement.
// The model is the fill-deadline wait, plus the backlog (every sealed
// batch in the card queue, both classes) drained at one recent-mean pass
// per worker, plus the request's own pass. The measurement is how long
// recent heavy passes' oldest lanes waited since submission, plus one
// pass: it sees the waits the model misses — at backpressure, in open
// batches, behind retries and the scalar fallback. It counts only while its last
// observation is no older than the wait it measured, so once passes stop
// reporting long waits the estimate falls back to the model by itself.
// The admission layer (internal/phiadmit) sheds at the door when this
// exceeds a request's remaining deadline budget, and the fleet router
// uses the per-card values to route past a card whose backlog would blow
// the budget. Before the first pass completes the estimate is just the
// fill deadline — a cold server admits freely.
func (s *Server) EstimatedDelay() time.Duration { return s.estimatedDelayAt(time.Now()) }

// estimatedDelayAt is EstimatedDelay judged at host time now.
func (s *Server) estimatedDelayAt(now time.Time) time.Duration {
	pass := math.Float64frombits(s.passWall.Load())
	if pass <= 0 {
		return s.cfg.FillDeadline
	}
	sojourn := (s.waiting()/float64(s.cfg.Workers) + 1) * pass
	est := s.cfg.FillDeadline + time.Duration(sojourn*float64(time.Second))
	wait := math.Float64frombits(s.waitEWMA.Load())
	if age := now.Sub(time.Unix(0, s.waitAt.Load())); age.Seconds() <= wait {
		est = max(est, time.Duration((wait+pass)*float64(time.Second)))
	}
	return est
}

// ctl is the trace track for batch fills, steals, breaker transitions
// and stall timeouts: Card<<20 (0 for a standalone server). Workers
// use ctl()+1+idx, so the cards of a fleet sharing a Tracer stay on
// disjoint rows.
func (s *Server) ctl() int64 { return int64(s.cfg.Card) << 20 }

// trackName decorates a trace-track name with the server's labels
// ("card-queue [card=2]"), so fleet traces stay readable.
func (s *Server) trackName(base string) string {
	if len(s.cfg.Labels) < 2 {
		return base
	}
	var sb []byte
	sb = append(sb, base...)
	sb = append(sb, " ["...)
	for i := 0; i+1 < len(s.cfg.Labels); i += 2 {
		if i > 0 {
			sb = append(sb, ' ')
		}
		sb = append(sb, s.cfg.Labels[i]...)
		sb = append(sb, '=')
		sb = append(sb, s.cfg.Labels[i+1]...)
	}
	sb = append(sb, ']')
	return string(sb)
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Start launches the workers. Canceling ctx fails fast: in-flight
// batches drain, open and queued requests resolve with ErrCanceled.
// Close must still be called afterwards to release the server's
// goroutines.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("phiserve: Server started twice")
	}
	s.started = true
	s.ctx, s.cancel = context.WithCancel(ctx)
	// Before any Close can wait on them: the workers, and the sweep that
	// fails what is queued the moment ctx is canceled rather than when a
	// worker next frees.
	s.workers.Add(s.cfg.Workers + 1)
	s.stopSweep = context.AfterFunc(s.ctx, func() {
		defer s.workers.Done()
		s.failQueued()
	})
	s.mu.Unlock()

	s.tracer.NameThread(s.ctl(), s.trackName("card-queue"))
	for slot := 0; slot < s.cfg.Workers; slot++ {
		go s.work(slot)
	}
}

// SubmitOpts is the admission metadata attached to one request.
type SubmitOpts struct {
	// Tenant identifies the traffic class for the admission layer's
	// per-tenant accounting (internal/phiadmit); empty is fine.
	Tenant string
	// Deadline is the absolute SLO deadline: a lane still unexecuted past
	// it resolves with ErrDeadlineExceeded instead of occupying a kernel
	// pass. Zero means no deadline. When zero and ctx carries a deadline,
	// the context's deadline is used.
	Deadline time.Time
	// Journey, when non-nil, is the request's journey record begun
	// upstream (the admission door or the fleet router); the scheduler
	// appends its events there and resolves it at finish. When nil and
	// Config.Journeys is set, the server begins one itself.
	Journey *phitrace.Journey
}

// SubmitWork enqueues one operation of any registered workload kind and
// returns the channel its Result will arrive on. It carries admission
// metadata: a tenant id and an SLO deadline that travel with the request
// through the card queue, work stealing and the workers. The input is
// validated by the workload before it can occupy a lane; an
// already-expired context or deadline is rejected here — the request
// never reaches the queue. ctx bounds this call's wait: it blocks while
// its class has 2*QueueDepth sealed batches waiting (backpressure) and
// returns ctx.Err() if ctx ends first, or ErrCanceled if the server's
// context does; a Close that begins meanwhile waits for the call to
// enqueue. Once nil is returned, exactly one Result is guaranteed to
// arrive. After admission, ctx keeps mattering: a request whose context
// is canceled while it waits is dropped at the next checkpoint (batch
// seal, dequeue, pre-pass filter) and resolves with ErrCanceled.
//
// Requests aggregate into batches by Workload instance identity: resolve
// instances through the phiwork.*For caches (or reuse your own) so equal
// identities share batches.
func (s *Server) SubmitWork(ctx context.Context, w phiwork.Workload, in phiwork.Input, opts SubmitOpts) (<-chan Result, error) {
	if w == nil {
		return nil, fmt.Errorf("phiserve: nil workload")
	}
	if err := w.Validate(in); err != nil {
		return nil, err
	}
	// Reject dead-on-arrival work before it can occupy a lane: a canceled
	// context, or a deadline that has already passed.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	now := time.Now()
	deadline := opts.Deadline
	if deadline.IsZero() {
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		}
	}
	if !deadline.IsZero() && now.After(deadline) {
		s.stats.expiredLanes.Inc()
		return nil, ErrDeadlineExceeded
	}
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil, ErrNotStarted
	}
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.inFlight.Add(1)
	s.mu.Unlock()
	defer s.inFlight.Done()
	if s.ctx.Err() != nil {
		return nil, ErrCanceled
	}
	// Adopt the journey begun upstream (door or fleet router), or begin
	// one here for direct submissions. Journeys this call begins are also
	// resolved here on the rejection paths below; an upstream creator
	// resolves its own on our error return instead.
	journey := opts.Journey
	ownJourney := false
	if journey == nil && s.cfg.Journeys != nil {
		slo := time.Duration(0)
		if !deadline.IsZero() {
			slo = deadline.Sub(now)
		}
		journey = s.cfg.Journeys.BeginWork(opts.Tenant, w.Tag(),
			string(w.Kind()), deadline, slo)
		ownJourney = true
		journey.Event("workload", s.cfg.Card, string(w.Kind()))
	}
	journey.Event("submit", s.cfg.Card, "")
	req := &request{
		work:     w,
		in:       in,
		at:       now,
		resp:     make(chan Result, 1),
		deadline: deadline,
		ctx:      ctx,
		journey:  journey,
	}
	reject := func(err error) (<-chan Result, error) {
		if ownJourney {
			journey.Finish(phitrace.OutcomeCanceled, "not submitted")
		}
		return nil, err
	}
	degraded := s.breaker.degraded()
	cls := w.Class()
	s.mu.Lock()
	// Backpressure, per class: a heavy flood blocks heavy submitters and
	// never gates the light class. A graceful Close waits for this call,
	// and the workers keep draining meanwhile.
	for s.fullLocked(cls) {
		if s.room[cls] == nil {
			s.room[cls] = make(chan struct{})
		}
		room := s.room[cls]
		s.mu.Unlock()
		select {
		case <-room:
		case <-s.ctx.Done():
			return reject(ErrCanceled)
		case <-ctx.Done():
			return reject(ctx.Err())
		}
		s.mu.Lock()
	}
	if s.ctx.Err() != nil {
		s.mu.Unlock()
		return reject(ErrCanceled)
	}
	s.stats.submitted.Inc()
	s.stats.workload(w.Kind()).submitted.Inc()
	if degraded {
		// Breaker open: don't buffer toward a vector batch that will not
		// run. A healthy sibling card may take the request; otherwise it
		// seals at once as a one-request scalar-fallback batch.
		s.sealing.Add(1)
		s.mu.Unlock()
		defer s.sealing.Done()
		reqs := []*request{req}
		if s.offerSteal(w, reqs, StealDegraded) == 0 {
			s.pushOrFail(&batch{work: w, reqs: reqs, fallback: true})
		}
		return req.resp, nil
	}
	full := s.addLocked(req)
	s.mu.Unlock()
	if full != nil {
		s.seal(full, false)
	}
	return req.resp, nil
}

// DoWork is the synchronous convenience wrapper over SubmitWork.
func (s *Server) DoWork(ctx context.Context, w phiwork.Workload, in phiwork.Input) (Result, error) {
	ch, err := s.SubmitWork(ctx, w, in, SubmitOpts{})
	if err != nil {
		return Result{}, err
	}
	select {
	case res := <-ch:
		return res, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Close shuts the server down. If the context is still alive this is a
// graceful drain: SubmitWork calls already under way (blocked ones
// included) enqueue, open partial batches seal, and the workers run
// every queued batch before Close returns. After cancellation, or if the
// context is canceled during the drain, what is still queued fails with
// ErrCanceled and Close reaps the goroutines. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		s.inFlight.Wait() // racing SubmitWork calls have enqueued or given up
		var flush []*pending
		s.mu.Lock()
		for _, p := range s.open {
			s.takeLocked(p)
			flush = append(flush, p)
		}
		s.mu.Unlock()
		for _, p := range flush {
			s.seal(p, false)
		}
		s.sealing.Wait() // seals already under way reach the queue first
		// Wake workers parked on injected stalls: they serve their
		// leftovers on the scalar path so the drain can finish.
		close(s.release)
		close(s.drained)
	}
	if s.stopSweep() {
		s.workers.Done() // the sweep will never run
	}
	s.workers.Wait()
	s.zombies.Wait() // abandoned executions must unwedge on shutdown
	s.cancel()
}

// Stats returns a consistent snapshot of the server's counters.
func (s *Server) Stats() Stats {
	bstate, trips := s.breaker.snapshot()
	return s.stats.snapshot(s.cfg, bstate, trips)
}
