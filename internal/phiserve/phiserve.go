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
// family a batch runs. Dispatch is class-aware: ClassLight batches
// (public ops) ride the pool's fast lane and a separate overflow list,
// so a flood of heavy private-op batches cannot starve them past their
// SLO.
//
// The scheduling policy is the classic batch-server trade: a request
// that arrives into an empty per-workload buffer opens a batch and arms
// a fill deadline; the batch dispatches when the sixteenth request
// arrives or when the deadline fires, whichever is first. Partial
// batches pad their unused lanes with a duplicated operand, so a partial
// dispatch costs a full kernel pass — the deadline is literally the knob
// trading latency (dispatch early, waste lanes) against throughput (wait
// for fills, queue longer).
//
// Execution runs on a persistent phipool.Server: long-lived workers each
// owning a private vector unit, a bounded batch queue whose fullness
// propagates as backpressure to Submit, graceful drain on Close, and
// fail-fast rejection of queued batches when the context is canceled.
// Results return asynchronously on a per-request channel together with
// the simulated per-request latency; Stats aggregates queue depth, the
// batch fill-rate histogram, cycles/op, simulated throughput and the
// resilience counters, with per-workload families alongside.
//
// Execution is verified and survivable (see resilience.go): verifying
// workloads run the Bellcore re-encryption check per lane, transient
// fault-detected lanes retry on fresh batches with exponential backoff
// and degrade to the workload's scalar path after MaxRetries, stalled
// workers are detected by an execution timeout and respawned, and a
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
	"phiopenssl/internal/phipool"
	"phiopenssl/internal/phitrace"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
	"phiopenssl/internal/telemetry"
	"phiopenssl/internal/vpu"
)

// BatchSize is the number of lanes in one batch (one request per lane).
const BatchSize = rsakit.BatchSize

// Errors returned by Submit or delivered in Result.Err.
var (
	// ErrCanceled marks requests abandoned by context cancellation:
	// requests still waiting in a per-workload buffer or in a batch that
	// was queued but never executed. In-flight batches are drained, so
	// their requests complete normally.
	ErrCanceled = errors.New("phiserve: canceled")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("phiserve: server closed")
	// ErrNotStarted reports a Submit before Start.
	ErrNotStarted = errors.New("phiserve: server not started")
	// ErrDeadlineExceeded marks requests whose SLO deadline expired before
	// a kernel pass could serve them: rejected at Submit (deadline already
	// past), dropped when their batch sealed, or dropped at the dispatch
	// queue / pre-pass filter. The lane never burns card cycles.
	ErrDeadlineExceeded = errors.New("phiserve: deadline exceeded before execution")
	// ErrOverloaded marks requests shed because the scheduler's overflow
	// list hit its cap (Config.OverflowCap): the dispatch queue and the
	// overflow behind it are both full, so admitting more work would only
	// grow an unserveable backlog.
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
	// QueueDepth bounds the dispatch queue between the scheduler and the
	// workers; a full queue blocks dispatch and, transitively, Submit
	// (backpressure). The light-class fast lane gets its own queue of the
	// same depth. Defaults to 2*Workers.
	QueueDepth int
	// OverflowCap bounds each of the scheduler's per-class overflow lists
	// (the batches parked when the dispatch queue is full). Intake
	// backpressure already stops new admissions of a class once its list
	// is QueueDepth deep, but deadline flushes of already-open workloads
	// and adopted lanes can still push past that; at the cap the newest
	// batch is shed with ErrOverloaded instead of growing an unserveable
	// backlog. Defaults to 8*QueueDepth.
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
	// telemetry.Handler); a non-nil Tracer additionally records the
	// per-request lifecycle as Chrome trace events. Nil (the default)
	// means no tracing; metrics then live on a private registry so Stats
	// keeps working, reachable via Server.Telemetry.
	Telemetry *telemetry.Telemetry
	// Labels are key,value pairs stamped on every metric this server
	// registers (e.g. "card","0"). They are mandatory when several servers
	// share one registry: unlabeled duplicates would silently merge the
	// stateful counters, and the registry panics on the duplicate
	// function-backed metrics. The multi-card fleet labels each card.
	Labels []string
	// TrackBase offsets this server's trace tracks (TrackBase is the
	// scheduler/control track, TrackBase+1+i is worker i). Servers sharing
	// one Tracer — the fleet's cards — must use disjoint ranges.
	TrackBase int64
	// Redispatch, when non-nil, is offered work this server would rather
	// hand off than serve locally: deadline-fired partial batches,
	// fault-detected lanes awaiting a retry, and requests admitted while
	// the breaker is open. The hook (the fleet's work-stealing router)
	// returns how many operations, from the front of the slice, it moved
	// to a sibling server via Adopt; the rest stay here. See steal.go.
	Redispatch RedispatchFunc
	// Journeys, when non-nil, records a per-request journey (batch seal,
	// queue dequeue, kernel pass with its segment breakdown, retries,
	// fallback, expiry checkpoints) resolved with exactly one terminal
	// outcome at finish, and receives incident triggers on breaker
	// transitions and retry-budget exhaustion. A journey begun upstream
	// (the admission door or the fleet router) arrives in SubmitOpts
	// instead; requests adopted from a sibling card keep the journey they
	// came with.
	Journeys *phitrace.Recorder
	// Card is this server's index in a multi-card fleet, stamped on
	// journey events so a steal hop is visible as a card change. 0 for a
	// standalone server; the fleet sets it.
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
	// (queueing delay is host-side and reported by the A6 load model).
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
// needed to resolve it rides inside: the span string fixed at Submit
// keeps trace identity unique across cards, and the done CAS keeps
// resolution exactly-once no matter how many cards race.
type request struct {
	id   int64  // per-server ordinal, assigned by Submit
	span string // trace-span identity, globally unique (TrackBase-scoped)
	work phiwork.Workload
	in   phiwork.Input
	at   time.Time    // Submit time, for the wall-latency histogram
	resp chan Result  // buffered(1); receives exactly one Result
	done atomic.Bool  // set by Server.finish; guards exactly-once delivery
	hops atomic.Int32 // Adopt count, bounding steal ping-pong

	// Admission metadata (SubmitOpts). deadline is the absolute SLO
	// deadline — zero means none; a lane past it is dropped at the next
	// checkpoint (batch seal, dispatch dequeue, pre-pass filter) instead
	// of burning card cycles. ctx is the submitter's context, checked at
	// the same checkpoints so an abandoned request frees its lane. tenant
	// rides along for the admission layer's accounting.
	deadline time.Time
	ctx      context.Context
	tenant   string
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

// batch is the scheduler's dispatch unit.
type batch struct {
	work phiwork.Workload
	reqs []*request
	// fallback routes the batch straight to the scalar path (breaker open
	// at admission).
	fallback bool
	// attempts counts execution attempts already spent on this batch's
	// requests (stall-timeout re-dispatches).
	attempts int
	// enqueuedAt stamps the hand-off to the dispatch queue, for the
	// queue-wait histogram.
	enqueuedAt time.Time
}

// pending is one workload's open batch: requests accumulated since the
// buffer was last empty, plus the deadline timer and the generation
// guarding it.
type pending struct {
	reqs     []*request
	gen      uint64
	timer    *time.Timer
	openedAt time.Time // first request's arrival, for the fill-window slice
}

// flushMsg asks the scheduler to dispatch a workload's open batch if it
// still belongs to the generation whose timer fired.
type flushMsg struct {
	work phiwork.Workload
	gen  uint64
}

// Server is the streaming batch scheduler. Requests for the same
// workload must be submitted with the same phiwork.Workload instance —
// the scheduler aggregates by identity (the phiwork.*For caches are the
// canonicalization point), the natural shape for a server holding a
// fixed key set.
type Server struct {
	cfg  Config
	pool *phipool.Server[*worker, *batch]

	// intake is the heavy-class submission channel; intakeLight carries
	// ClassLight (public-op) requests so heavy backpressure cannot block
	// cheap submissions.
	intake      chan *request
	intakeLight chan *request
	flush       chan flushMsg

	ctx       context.Context
	cancel    context.CancelFunc
	schedDone chan struct{}

	// breaker gates the vector path on the rolling fault rate.
	breaker *breaker
	// release is closed by Close before the pool drains: workers parked on
	// an injected stall wake up and serve their leftovers via the scalar
	// path so the drain can finish.
	release     chan struct{}
	releaseOnce sync.Once
	// workerSeq numbers worker states for per-worker fault/jitter seeds;
	// respawned workers get fresh numbers (fresh schedules).
	workerSeq atomic.Int64
	// passWall is the EWMA of recent heavy-class kernel-pass host wall
	// times (float64 bits), feeding EstimatedDelay; zero until the first
	// pass completes. Light passes are excluded — they are an order of
	// magnitude cheaper and would drag the heavy sojourn estimate down.
	passWall atomic.Uint64

	mu       sync.Mutex
	started  bool
	closed   bool
	inFlight sync.WaitGroup // Submits between the closed check and the enqueue

	// tel is the server's telemetry bundle: the caller's, or a private
	// metrics-only bundle so the registry (and hence Stats) always exists.
	tel    *telemetry.Telemetry
	tracer *telemetry.Tracer
	// reqSeq numbers requests for trace-span identities.
	reqSeq atomic.Int64
	// workTags caches a short display tag per workload for trace labels,
	// bounded by workTagCacheMax (see workTag).
	workTags     sync.Map // phiwork.Workload -> string
	workTagSeq   atomic.Int64
	workTagCount atomic.Int64

	stats *statsAcc
}

// New validates cfg (applying defaults) and builds a stopped server; call
// Start before Submit.
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
		cfg:         cfg,
		intake:      make(chan *request, BatchSize),
		intakeLight: make(chan *request, BatchSize),
		flush:       make(chan flushMsg, 1),
		schedDone:   make(chan struct{}),
		breaker: newBreaker(r.BreakerWindow, r.BreakerThreshold,
			r.BreakerMinSamples, r.BreakerCooldown),
		release: make(chan struct{}),
		tel:     tel,
		tracer:  tel.Tracer,
		stats:   newStatsAcc(tel.Registry, cfg.Labels),
	}
	s.breaker.onTransition = s.breakerTransition
	s.tel.Registry.CounterFunc("phiserve_breaker_trips_total",
		"closed->open (and failed-probe) breaker transitions",
		func() float64 { _, trips := s.breaker.snapshot(); return float64(trips) },
		cfg.Labels...)
	pool, err := phipool.NewServer(cfg.Machine, cfg.Workers, cfg.QueueDepth,
		s.newWorker, s.runBatch, s.rejectBatch)
	if err != nil {
		return nil, err
	}
	// The light-class fast lane: cheap public-op batches bypass the heavy
	// dispatch queue entirely, so a heavy flood cannot starve them.
	pool.SetFastLane(cfg.QueueDepth, func(b *batch) bool {
		return b.work.Class() == phiwork.ClassLight
	})
	if r.ExecTimeout > 0 {
		pool.SetJobTimeout(r.ExecTimeout, s.retryTimedOut)
	}
	// Deadline-aware drop at the dispatch queue: a batch none of whose
	// lanes is still worth executing is resolved by the expiry handler
	// instead of occupying a worker. Lane death is monotone (a canceled
	// or expired lane never comes back), so the predicate cannot race a
	// batch back to life between the check and the handler.
	pool.SetJobExpiry(s.batchDead, s.resolveDeadBatch)
	pool.SetDequeueObserver(s.observeDequeue)
	pool.Instrument(s.tel.Registry, "phipool", cfg.Labels...)
	s.pool = pool
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

// resolveDeadBatch is the pool's expiry handler: it resolves (and counts)
// the lanes of a batch that died waiting in the dispatch queue.
func (s *Server) resolveDeadBatch(b *batch) {
	s.dropDeadLanes(b.reqs, "pool-dequeue")
}

// Telemetry returns the server's telemetry bundle: the one supplied in
// Config, or the private metrics-only bundle the server built. Serving
// telemetry.Handler(s.Telemetry()) exposes the live /metrics, /vars and
// /trace endpoints for this server.
func (s *Server) Telemetry() *telemetry.Telemetry { return s.tel }

// workTagCacheMax bounds the workTags cache. A long-lived server seeing
// millions of distinct workloads must not grow the map forever; the tags
// only feed trace labels, so when the cap is hit the cache is simply
// reset — a workload seen again after a reset gets a new ordinal, which
// is harmless.
const workTagCacheMax = 1024

// KeyTag exposes the short display tag ("rsa-1024#2") of the key's
// rsa-priv workload — the compat spelling of WorkTag for RSA-only
// callers.
func (s *Server) KeyTag(key *rsakit.PrivateKey) string {
	return s.workTag(phiwork.RSAPrivateFor(key))
}

// WorkTag exposes a workload's short display tag ("dhe-fixed-modp2048#3")
// so a fleet router can label the journeys it begins with the same tag
// the card's own spans and journey events use.
func (s *Server) WorkTag(w phiwork.Workload) string { return s.workTag(w) }

// workTag returns a stable short label for a workload: its Tag plus an
// arrival ordinal distinguishing same-shape instances ("rsa-1024#2").
func (s *Server) workTag(w phiwork.Workload) string {
	if tag, ok := s.workTags.Load(w); ok {
		return tag.(string)
	}
	tag := w.Tag() + "#" + strconv.FormatInt(s.workTagSeq.Add(1), 10)
	if prev, loaded := s.workTags.LoadOrStore(w, tag); loaded {
		return prev.(string)
	}
	if s.workTagCount.Add(1) > workTagCacheMax {
		// Wholesale eviction: concurrent readers just re-insert their
		// workloads. Racing resetters double-clear at worst — the count
		// only shrinks.
		s.workTags.Range(func(k, _ any) bool {
			s.workTags.Delete(k)
			return true
		})
		s.workTagCount.Store(0)
	}
	return tag
}

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
// same request, and only the first wins (reported by the return). As the
// single resolution point it also owns completion accounting — the
// completed/failed counters (total and per-workload), the wall-latency
// histogram, and the close of the request's trace span.
func (s *Server) finish(q *request, res Result) bool {
	if !q.done.CompareAndSwap(false, true) {
		return false
	}
	if res.Err != nil {
		s.stats.failed.Inc()
	} else {
		s.stats.completed.Inc()
		s.stats.workload(q.work.Kind()).completed.Inc()
		s.stats.wallLatency.Observe(time.Since(q.at).Seconds())
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
	if s.tracer != nil {
		args := telemetry.Args{
			"fill":     res.BatchFill,
			"attempts": res.Attempts,
			"fallback": res.Fallback,
		}
		if res.Err != nil {
			args["err"] = res.Err.Error()
		} else {
			args["sim_cycles"] = res.BatchCycles
		}
		s.tracer.SpanEnd(q.span, "request", args)
	}
	q.resp <- res
	return true
}

// dropDeadLanes filters a request slice down to the lanes still worth
// executing: already-resolved lanes are skipped silently; canceled and
// deadline-expired lanes are resolved (and counted) here. Every point
// that is about to spend card time on a slice runs it — batch seal, the
// dispatch queue's expiry check, the pre-pass filter, the retry loop and
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
			if s.finish(q, Result{Err: ErrCanceled}) {
				s.stats.canceledLanes.Inc()
			}
		case q.expiredAt(now):
			q.journey.Event("checkpoint", s.cfg.Card, checkpoint)
			if s.finish(q, Result{Err: ErrDeadlineExceeded}) {
				s.stats.expiredLanes.Inc()
			}
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

// observeDequeue is the pool's dequeue observer: it stamps queue wait and
// the pool slot onto every journeyed lane the moment a worker picks the
// batch up — before the expiry judgment, so even a batch about to be
// dropped records how long it queued.
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

// observePass folds one heavy kernel pass's host wall time into the
// rolling per-batch service-time estimate behind EstimatedDelay.
func (s *Server) observePass(d time.Duration) {
	sec := d.Seconds()
	for {
		old := s.passWall.Load()
		prev := math.Float64frombits(old)
		next := sec
		if prev > 0 {
			next = ewmaAlpha*sec + (1-ewmaAlpha)*prev
		}
		if s.passWall.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// EstimatedDelay is the telemetry-derived sojourn estimate for a newly
// admitted heavy-class request: the fill-deadline wait, plus the backlog
// (dispatch queue + overflow lists) drained at one recent-mean pass per
// worker, plus the request's own pass. The admission layer
// (internal/phiadmit) sheds at the door when this exceeds a request's
// remaining deadline budget, and the fleet router uses the per-card
// values to route past a card whose backlog would blow the budget.
// Before the first pass completes the estimate is just the fill deadline
// — a cold server admits freely.
func (s *Server) EstimatedDelay() time.Duration {
	pass := math.Float64frombits(s.passWall.Load())
	if pass <= 0 {
		return s.cfg.FillDeadline
	}
	backlog := float64(s.pool.QueueDepth()) + s.stats.overflowDepth.Value()
	sojourn := (backlog/float64(s.cfg.Workers) + 1) * pass
	return s.cfg.FillDeadline + time.Duration(sojourn*float64(time.Second))
}

// ctl is the trace track for the scheduler goroutine, breaker transitions
// and the timeout monitor: Config.TrackBase (0 for a standalone server).
// Workers use ctl()+1+idx, so servers sharing a Tracer stay on disjoint
// rows.
func (s *Server) ctl() int64 { return s.cfg.TrackBase }

// trackName decorates a trace-track name with the server's labels
// ("scheduler [card=2]"), so fleet traces stay readable.
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

// Start launches the workers and the scheduler goroutine. Canceling ctx
// fails fast: in-flight batches drain, buffered and queued requests
// resolve with ErrCanceled. Close must still be called afterwards to
// release the server's goroutines.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("phiserve: Server started twice")
	}
	s.started = true
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.mu.Unlock()

	s.tracer.NameThread(s.ctl(), s.trackName("scheduler"))
	s.pool.Start(s.ctx)
	go s.schedule()
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

// Submit enqueues one private-key operation c^D mod N and returns the
// channel its Result will arrive on — the compat spelling of SubmitWork
// over the key's canonical rsa-priv workload. ctx bounds only this call's
// wait (backpressure can block it); once nil is returned, exactly one
// Result is guaranteed to arrive. c must be in [0, key.N).
func (s *Server) Submit(ctx context.Context, key *rsakit.PrivateKey, c bn.Nat) (<-chan Result, error) {
	return s.SubmitWith(ctx, key, c, SubmitOpts{})
}

// SubmitWith is Submit with admission metadata.
func (s *Server) SubmitWith(ctx context.Context, key *rsakit.PrivateKey, c bn.Nat, opts SubmitOpts) (<-chan Result, error) {
	if key == nil {
		return nil, fmt.Errorf("phiserve: nil key")
	}
	return s.SubmitWork(ctx, phiwork.RSAPrivateFor(key), phiwork.Input{A: c}, opts)
}

// SubmitWork enqueues one operation of any registered workload kind, with
// admission metadata: a tenant id and an SLO deadline that travel with
// the request through the scheduler, the dispatch queue, work stealing
// and the worker pool. The input is validated by the workload before it
// can occupy a lane; an already-expired context or deadline is rejected
// here — the request never reaches the pool. After admission, ctx keeps
// mattering: a request whose context is canceled while it waits is
// dropped at the next checkpoint (batch seal, queue dequeue, pre-pass
// filter) and resolves with ErrCanceled.
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

	// Fail fast once canceled, so a free intake slot cannot win the
	// select against an already-dead server.
	select {
	case <-s.ctx.Done():
		return nil, ErrCanceled
	default:
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
		journey = s.cfg.Journeys.BeginWork(opts.Tenant, s.workTag(w),
			string(w.Kind()), deadline, slo)
		ownJourney = true
		journey.Event("workload", s.cfg.Card, string(w.Kind()))
	}
	journey.Event("submit", s.cfg.Card, "")
	req := &request{
		id:       s.reqSeq.Add(1),
		work:     w,
		in:       in,
		at:       now,
		resp:     make(chan Result, 1),
		deadline: deadline,
		ctx:      ctx,
		tenant:   opts.Tenant,
		journey:  journey,
	}
	// The span ID is scoped by TrackBase so fleets sharing one Tracer
	// never collide (every card's reqSeq counts 1,2,3...), and it is
	// fixed here because the request may be resolved by a different
	// server after a steal.
	req.span = strconv.FormatInt(s.cfg.TrackBase, 10) + "." +
		strconv.FormatInt(req.id, 10)
	// The span opens before the enqueue: once the request is in the
	// intake, a worker can resolve it (and close the span) before this
	// goroutine runs another line. The rejection paths below close the
	// span themselves so begins and ends stay balanced.
	if s.tracer != nil {
		args := telemetry.Args{"key": s.workTag(w), "workload": string(w.Kind())}
		if req.tenant != "" {
			args["tenant"] = req.tenant
		}
		if journey != nil {
			// Cross-link: the journey id in the span args lets a Perfetto
			// view jump to the /journeys record and vice versa.
			args["journey"] = journey.ID()
		}
		s.tracer.SpanBegin(req.span, "request", args)
	}
	// Light-class requests ride their own intake so heavy backpressure
	// (a closed heavy gate, a full heavy intake buffer) cannot block a
	// cheap submission behind it.
	intake := s.intake
	if w.Class() == phiwork.ClassLight {
		intake = s.intakeLight
	}
	select {
	case intake <- req:
		s.stats.submitted.Inc()
		s.stats.workload(w.Kind()).submitted.Inc()
		return req.resp, nil
	case <-s.ctx.Done():
		s.tracer.SpanEnd(req.span, "request", telemetry.Args{"err": "not submitted"})
		if ownJourney {
			journey.Finish(phitrace.OutcomeCanceled, "not submitted")
		}
		return nil, ErrCanceled
	case <-ctx.Done():
		s.tracer.SpanEnd(req.span, "request", telemetry.Args{"err": "not submitted"})
		if ownJourney {
			journey.Finish(phitrace.OutcomeCanceled, "not submitted")
		}
		return nil, ctx.Err()
	}
}

// Do is the synchronous convenience wrapper: Submit then wait.
func (s *Server) Do(ctx context.Context, key *rsakit.PrivateKey, c bn.Nat) (Result, error) {
	ch, err := s.Submit(ctx, key, c)
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
// graceful drain: open partial batches dispatch immediately and every
// queued batch executes. After cancellation it instead reaps the
// goroutines and fails any straggling requests with ErrCanceled. Close is
// idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.started || s.closed {
		started := s.started
		s.mu.Unlock()
		if started {
			<-s.schedDone
			s.pool.Close()
		}
		return
	}
	s.closed = true
	s.mu.Unlock()

	s.inFlight.Wait()    // racing Submits have enqueued or given up
	close(s.intake)      // scheduler flushes pending and exits...
	close(s.intakeLight) // ...once both intakes are drained
	// Wake workers parked on injected stalls before waiting on the
	// scheduler: the scheduler's final act is flushing its overflow lists
	// through the blocking path, which needs queue slots that only free
	// up when parked workers drain their batches via the scalar path.
	s.releaseOnce.Do(func() { close(s.release) })
	<-s.schedDone
	// After cancellation the scheduler exits without draining the intake
	// buffers; resolve whatever it left behind.
	for req := range s.intake {
		s.finish(req, Result{Err: ErrCanceled})
	}
	for req := range s.intakeLight {
		s.finish(req, Result{Err: ErrCanceled})
	}
	s.pool.Close()
	s.cancel()
}

// overflowPollInterval is how often the scheduler retries its overflow
// lists against the dispatch queues while either is non-empty. Small
// against the default FillDeadline (2ms), so an overflowed batch reaches
// a freed queue slot promptly.
const overflowPollInterval = 250 * time.Microsecond

// schedule is the single goroutine that owns the per-workload buffers.
//
// Dispatch never blocks this goroutine: a batch the queue cannot take
// goes onto the scheduler-owned overflow list for its class and is
// retried on a short poll. Blocking here — the old behavior — was
// head-of-line blocking for the whole server: one workload saturating
// the dispatch queue froze fill deadlines and intake for every other.
// Backpressure survives the fix, per class: once a class's overflow list
// is QueueDepth deep the scheduler stops pulling that class's intake (a
// nil channel never selects), so that intake buffer fills and Submit
// blocks — while the other class, deadline flushes and cancellation keep
// being served. A heavy flood therefore backpressures heavy submitters
// without ever gating the light lane.
func (s *Server) schedule() {
	defer close(s.schedDone)
	open := make(map[phiwork.Workload]*pending)
	var gen uint64

	// Per-class overflow lists (indexed by phiwork.Class), oldest first;
	// only this goroutine touches them.
	var overflow [2][]*batch
	poll := time.NewTimer(overflowPollInterval)
	if !poll.Stop() {
		<-poll.C
	}
	pollArmed := false

	drainClass := func(cls phiwork.Class) {
		q := overflow[cls]
		for len(q) > 0 {
			if !s.pool.TrySubmit(q[0]) {
				overflow[cls] = q
				return
			}
			q[0] = nil // release the batch to the GC
			q = q[1:]
			s.stats.overflowDepth.Add(-1)
		}
		overflow[cls] = nil
	}
	drainOverflow := func() {
		// Light first: its queue frees independently and its batches are
		// closest to their (tight) SLOs.
		drainClass(phiwork.ClassLight)
		drainClass(phiwork.ClassHeavy)
	}
	enqueue := func(b *batch) {
		cls := b.work.Class()
		b.enqueuedAt = time.Now()
		drainClass(cls) // keep FIFO within the class: older batches go first
		if len(overflow[cls]) == 0 && s.pool.TrySubmit(b) {
			return
		}
		if len(overflow[cls]) >= s.cfg.OverflowCap {
			// The queue and the overflow behind it are both full: shed the
			// newest batch instead of growing an unserveable backlog. Old
			// batches keep their FIFO position — they are closest to their
			// deadlines.
			for _, r := range b.reqs {
				if s.finish(r, Result{Err: ErrOverloaded}) {
					s.stats.overflowDropped.Inc()
				}
			}
			return
		}
		overflow[cls] = append(overflow[cls], b)
		s.stats.overflowed.Inc()
		s.stats.overflowDepth.Add(1)
		if note := journeyNote(b.reqs, func() string {
			return "depth=" + strconv.Itoa(len(overflow[cls])) + " class=" + cls.String()
		}); note != "" {
			for _, r := range b.reqs {
				r.journey.Event("overflow", s.cfg.Card, note)
			}
		}
	}

	dispatch := func(w phiwork.Workload, byDeadline bool) {
		p := open[w]
		delete(open, w)
		p.timer.Stop()
		s.stats.pendingLanes.Add(float64(-len(p.reqs)))
		if s.tracer != nil {
			s.tracer.Slice(s.ctl(), "batch-fill", p.openedAt,
				time.Since(p.openedAt), telemetry.Args{
					"lanes": len(p.reqs), "key": s.workTag(w)})
		}
		// Batch seal is the first drop checkpoint: lanes whose submitter
		// canceled while they buffered, or whose deadline already expired,
		// resolve here instead of riding a kernel pass.
		reqs := s.dropDeadLanes(p.reqs, "seal")
		if len(reqs) == 0 {
			return
		}
		if note := journeyNote(reqs, func() string {
			n := "fill=" + strconv.Itoa(len(reqs))
			if byDeadline {
				n += " deadline-fired"
			}
			return n
		}); note != "" {
			for _, q := range reqs {
				q.journey.Event("seal", s.cfg.Card, note)
			}
		}
		if byDeadline && len(reqs) < BatchSize {
			// A deadline-fired partial batch is the work-stealing hook's
			// bread and butter: a sibling card may have lanes of the same
			// workload open, or simply be idle.
			reqs = reqs[s.offerSteal(w, reqs, StealPartialDeadline):]
			if len(reqs) == 0 {
				return
			}
		}
		enqueue(&batch{work: w, reqs: reqs})
	}
	failAll := func() {
		for w, p := range open {
			p.timer.Stop()
			for _, r := range p.reqs {
				s.finish(r, Result{Err: ErrCanceled})
			}
			s.stats.pendingLanes.Add(float64(-len(p.reqs)))
			delete(open, w)
		}
		for cls := range overflow {
			for _, b := range overflow[cls] {
				for _, r := range b.reqs {
					s.finish(r, Result{Err: ErrCanceled})
				}
			}
			overflow[cls] = nil
		}
		s.stats.overflowDepth.Set(0)
	}
	handle := func(req *request) {
		if s.breaker.degraded() {
			// Breaker open: don't buffer toward a vector batch that will
			// not run. A healthy sibling card may take the request;
			// otherwise dispatch straight to the scalar fallback, one
			// request per job.
			reqs := []*request{req}
			if s.offerSteal(req.work, reqs, StealDegraded) > 0 {
				return
			}
			enqueue(&batch{work: req.work, reqs: reqs, fallback: true})
			return
		}
		p := open[req.work]
		if p == nil {
			gen++
			p = &pending{gen: gen, timer: s.armDeadline(req.work, gen),
				openedAt: time.Now()}
			open[req.work] = p
		}
		p.reqs = append(p.reqs, req)
		s.stats.pendingLanes.Add(1)
		if len(p.reqs) == BatchSize {
			dispatch(req.work, false)
		}
	}
	gracefulFlush := func() {
		// Graceful close: dispatch every open partial batch, then flush
		// the overflow lists through the blocking path — Close has
		// already released parked workers, so the queues drain.
		for w := range open {
			dispatch(w, false)
		}
		for cls := range overflow {
			for _, b := range overflow[cls] {
				s.submitBatch(b)
			}
			overflow[cls] = nil
		}
		s.stats.overflowDepth.Set(0)
	}

	heavyIn, lightIn := s.intake, s.intakeLight
	for {
		// Per-class backpressure: with a class's overflow list QueueDepth
		// deep, stop pulling that class's intake until a poll drains some
		// of it. A closed-and-drained intake goes nil permanently.
		intake := heavyIn
		if len(overflow[phiwork.ClassHeavy]) >= s.cfg.QueueDepth {
			intake = nil
		}
		intakeLight := lightIn
		if len(overflow[phiwork.ClassLight]) >= s.cfg.QueueDepth {
			intakeLight = nil
		}
		if len(overflow[phiwork.ClassHeavy])+len(overflow[phiwork.ClassLight]) > 0 && !pollArmed {
			poll.Reset(overflowPollInterval)
			pollArmed = true
		}
		select {
		case <-s.ctx.Done():
			failAll()
			return
		case <-poll.C:
			pollArmed = false
			drainOverflow()
		case msg := <-s.flush:
			if p, ok := open[msg.work]; ok && p.gen == msg.gen {
				s.stats.deadlineFires.Add(1)
				dispatch(msg.work, true)
			}
		case req, ok := <-intake:
			if !ok {
				heavyIn = nil
				if lightIn == nil {
					gracefulFlush()
					return
				}
				continue
			}
			handle(req)
		case req, ok := <-intakeLight:
			if !ok {
				lightIn = nil
				if heavyIn == nil {
					gracefulFlush()
					return
				}
				continue
			}
			handle(req)
		}
	}
}

// submitBatch hands a batch to the pool through the blocking path,
// failing its requests if the pool is already dead. Only the final
// overflow flush on graceful close uses it; live dispatch goes through
// the scheduler's non-blocking enqueue.
func (s *Server) submitBatch(b *batch) {
	if b.enqueuedAt.IsZero() {
		b.enqueuedAt = time.Now()
	}
	if err := s.pool.Submit(s.ctx, b); err != nil {
		// The pool's context is a child of s.ctx, so cancellation can
		// surface either as the pool's sentinel or as the caller
		// context's own error, depending on which select case wins.
		if errors.Is(err, phipool.ErrCanceled) || errors.Is(err, context.Canceled) {
			err = ErrCanceled
		}
		for _, r := range b.reqs {
			s.finish(r, Result{Err: err})
		}
	}
}

// armDeadline schedules a flush for (work, gen) after the fill deadline.
// The generation guard makes a timer that races its own Stop harmless:
// the scheduler ignores flushes whose generation is stale.
func (s *Server) armDeadline(w phiwork.Workload, gen uint64) *time.Timer {
	return time.AfterFunc(s.cfg.FillDeadline, func() {
		select {
		case s.flush <- flushMsg{work: w, gen: gen}:
		case <-s.ctx.Done():
		case <-s.schedDone:
		}
	})
}

// rejectBatch fails a batch abandoned in the dispatch queue by
// cancellation.
func (s *Server) rejectBatch(b *batch) {
	for _, r := range b.reqs {
		s.finish(r, Result{Err: ErrCanceled})
	}
}

// Stats returns a consistent snapshot of the server's counters.
func (s *Server) Stats() Stats {
	bstate, trips := s.breaker.snapshot()
	return s.stats.snapshot(s.cfg, s.pool.QueueDepth(),
		s.pool.JobsTimedOut(), s.pool.WorkerRespawns(), bstate, trips)
}
