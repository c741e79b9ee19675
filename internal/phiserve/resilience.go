package phiserve

import (
	"fmt"
	"time"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/telemetry"
	"phiopenssl/internal/vbatch"
	"phiopenssl/internal/vpu"
)

// Resilience is the server's survival policy for a faulty coprocessor.
// Execution is always verified (the Bellcore re-encryption check runs on
// every pass); Resilience decides what happens when verification fails,
// when a worker stalls, and when faults become frequent enough that the
// vector path should be abandoned wholesale.
//
// Fault schedules are seeded, so a given configuration replays
// bit-identically, and a retry pass runs as soon as the faulted pass
// ends.
type Resilience struct {
	// MaxRetries is how many fresh-batch vector retries a fault-detected
	// lane gets before degrading to the scalar fallback. 0 means the
	// default (2); -1 disables retries (first fault degrades).
	MaxRetries int
	// ExecTimeout bounds one batch execution on a worker. A batch still
	// running after it is declared stalled: the worker respawns with a
	// fresh vector unit (and fresh fault schedule), and the batch is
	// re-dispatched or served by the fallback. It must comfortably exceed
	// the host time of one kernel pass at the configured key size. 0
	// disables stall detection — an injected stall then parks its worker
	// until Close.
	ExecTimeout time.Duration
	// BreakerWindow is the rolling window of pass outcomes the circuit
	// breaker watches. Default 32.
	BreakerWindow int
	// BreakerThreshold is the faulty-pass fraction that trips the breaker
	// once BreakerMinSamples outcomes are in the window. Default 0.5; set
	// above 1 to disable tripping.
	BreakerThreshold float64
	// BreakerMinSamples gates tripping until the window has evidence.
	// Default 8.
	BreakerMinSamples int
	// BreakerCooldown is how long the breaker stays open before
	// half-opening with a probe batch. Default 100ms (host time).
	BreakerCooldown time.Duration
	// Budget, when non-nil, is the shared retry budget: vector retry
	// passes and stall-timeout re-dispatches withdraw one token per lane
	// and are refused (degrading straight to the scalar fallback) when
	// the bucket is empty; successful completions refill it. The fleet
	// hands one budget to every card so fault recovery is capped
	// globally and cannot amplify an overload. Nil grants everything.
	Budget *RetryBudget
	// Faults, when non-nil and enabled, attaches a deterministic fault
	// injector to every worker's vector unit, with per-worker schedules
	// derived from Faults.Seed. Respawned workers draw fresh schedules.
	Faults *faultsim.Config
}

// WithDefaults returns r with every zero field set to its default.
func (r Resilience) WithDefaults() Resilience {
	if r.MaxRetries == 0 {
		r.MaxRetries = 2
	}
	if r.MaxRetries < 0 {
		r.MaxRetries = 0 // -1 sentinel: no retries
	}
	if r.BreakerWindow < 1 {
		r.BreakerWindow = 32
	}
	if r.BreakerThreshold <= 0 {
		r.BreakerThreshold = 0.5
	}
	if r.BreakerMinSamples < 1 {
		r.BreakerMinSamples = 8
	}
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = 100 * time.Millisecond
	}
	return r
}

// worker is one simulated hardware thread's private state: its kernel
// backend (interpreted unit or direct-arithmetic meter, per
// Config.Backend), its (optional) fault injector, a lazily built scalar
// engine for the fallback path. Respawned workers get a fresh index,
// hence a fresh deterministic fault stream (and a fresh trace track, so
// a respawn is visible as a new named row in Perfetto).
type worker struct {
	id      int
	track   int64 // trace track: the server's ctl() + 1 + id
	backend vpu.Backend
	inj     *faultsim.Injector
	scalar  engine.Engine
	// meter accumulates this worker's lifetime cycle attribution across
	// passes; its running total rides along in the pass trace events.
	meter *knc.Meter
}

// tid is the worker's trace track (the server's ctl() row is the
// scheduler/control).
func (w *worker) tid() int64 { return w.track }

func (w *worker) scalarEngine() engine.Engine {
	if w.scalar == nil {
		// The card's stock scalar library: non-CRT ops on it never touch
		// the vector unit, so injected VPU faults cannot reach them.
		w.scalar = baseline.NewMPSS()
	}
	return w.scalar
}

// newWorker builds a fresh worker state: at Start, and when a stalled
// worker respawns.
func (s *Server) newWorker() *worker {
	idx := int(s.workerSeq.Add(1)) - 1
	r := s.cfg.Resilience
	w := &worker{
		id:      idx,
		track:   s.ctl() + 1 + int64(idx),
		backend: vpu.NewBackend(s.cfg.Backend),
		meter:   knc.NewVectorMeter(knc.KNCVectorCosts),
	}
	if r.Faults != nil && r.Faults.Enabled() {
		w.inj = faultsim.New(r.Faults.ForWorker(idx))
		w.backend.AttachFaults(w.inj)
	}
	s.tracer.NameThread(w.tid(), s.trackName(fmt.Sprintf("worker %d", idx)))
	return w
}

// liveReqs filters out requests that were already resolved (a stalled
// batch's requests may have been answered by a re-dispatch racing the
// zombie execution). Unlike Server.dropDeadLanes it resolves nothing —
// the stall-drain path uses it where the remaining lanes must still be
// served rather than judged.
func liveReqs(reqs []*request) []*request {
	out := make([]*request, 0, len(reqs))
	for _, q := range reqs {
		if !q.done.Load() {
			out = append(out, q)
		}
	}
	return out
}

// runBatch executes one batch on a worker. This is where the whole
// resilience policy lives:
//
//	fallback batch, or breaker open  -> scalar path
//	injected stall                   -> park until release/timeout respawn
//	kernel failure / faulted lanes   -> breaker feedback, bounded
//	                                    immediate retries, then scalar fallback
//
// Clean lanes resolve as soon as their pass verifies; only faulted lanes
// ride into the retry passes.
func (s *Server) runBatch(w *worker, b *batch) {
	if !b.enqueuedAt.IsZero() {
		s.stats.queueWait.Observe(time.Since(b.enqueuedAt).Seconds())
	}
	if b.fallback {
		s.runScalarOn(w.scalarEngine(), b.reqs, b.attempts, w.tid())
		return
	}
	allow, probe := s.breaker.allowVector()
	if !allow {
		s.runScalarOn(w.scalarEngine(), b.reqs, b.attempts, w.tid())
		return
	}
	// Pre-pass filter: the last checkpoint before lanes pack into a
	// kernel pass. Expired and canceled lanes resolve here, so no dead
	// lane ever burns card cycles.
	pending := s.dropDeadLanes(b.reqs, "pre-pass")
	if len(pending) == 0 {
		return
	}
	attempt := b.attempts
	for {
		outcome := faultsim.PassOK
		if w.inj != nil {
			outcome = w.inj.NextPass()
		}
		if outcome == faultsim.PassStall {
			// The hardware thread wedged mid-pass. The ExecTimeout bound
			// (if configured) respawns the worker and re-dispatches the
			// batch; this goroutine is then the zombie. Park until
			// shutdown, then serve whatever is still unresolved.
			s.stats.stalledPasses.Inc()
			s.tracer.Instant(w.tid(), "stall",
				telemetry.Args{"lanes": len(pending), "attempt": attempt})
			s.breaker.record(true, probe)
			if s.awaitStallRelease() {
				// Graceful drain: the vector unit is gone but the scalar
				// path still works; no request is left behind.
				s.runScalarOn(w.scalarEngine(), pending, attempt+1, w.tid())
			} else {
				for _, q := range pending {
					s.finish(q, Result{Err: ErrCanceled}, nil)
				}
			}
			return
		}

		var faulted []*request
		if outcome == faultsim.PassKernelFail {
			// Transient whole-kernel failure: the pass aborted, no lane
			// produced a result.
			s.stats.kernelFaults.Inc()
			s.tracer.Instant(w.tid(), "kernel-fault",
				telemetry.Args{"lanes": len(pending), "attempt": attempt})
			s.breaker.record(true, probe)
			faulted = pending
		} else {
			w.backend.Reset()
			ins := make([]phiwork.Input, len(pending))
			for i, q := range pending {
				ins[i] = q.in
			}
			passStart := time.Now()
			if b.work.Class() == phiwork.ClassHeavy {
				oldest := pending[0].at
				for _, q := range pending[1:] {
					if q.at.Before(oldest) {
						oldest = q.at
					}
				}
				s.observeWait(passStart.Sub(oldest), passStart)
			}
			out, laneErrs, bd, err := b.work.ExecuteBatch(w.backend, ins)
			if err != nil {
				for _, q := range pending {
					s.finish(q, Result{Err: err}, nil)
				}
				s.breaker.record(true, probe)
				return
			}
			fill := len(pending)
			cycles := knc.KNCVectorCosts.VectorCycles(bd.Counts)
			phases := knc.KNCVectorCosts.PhaseBreakdown(bd.Phases)
			w.meter.ChargeVectorPhases(bd.Phases)
			simLat := s.cfg.Machine.Latency(s.cfg.Workers, cycles)
			for i, q := range pending {
				if laneErrs[i] != nil && phiwork.Transient(laneErrs[i]) {
					// A detected computational fault: the lane is a retry
					// candidate on a fresh pass.
					faulted = append(faulted, q)
				}
			}
			transient := len(faulted)
			// Record the pass before delivering its lanes, so a caller
			// reading Stats on its result sees the pass that served it
			// and its journey keeps the pass event (a resolved journey
			// drops later events).
			s.stats.recordBatch(b.work.Kind(), fill, cycles, phases)
			s.stats.faultsDetected.Add(int64(transient))
			if note := journeyNote(pending, func() string {
				n := fmt.Sprintf("worker=%d fill=%d cycles=%.0f", w.id, fill, cycles)
				for _, seg := range bd.Segments {
					n += " " + seg.Name + "=" + seg.Wall.Round(time.Microsecond).String()
				}
				return n
			}); note != "" {
				kernelWall := time.Since(passStart)
				for _, q := range pending {
					q.journey.EventDur("pass", s.cfg.Card, note, kernelWall)
				}
			}
			for i, q := range pending {
				switch {
				case laneErrs[i] == nil:
					s.finish(q, Result{
						M:           out[i],
						BatchFill:   fill,
						BatchCycles: cycles,
						SimLatency:  simLat,
						Attempts:    attempt,
					}, nil)
				case !phiwork.Transient(laneErrs[i]):
					// A permanent per-lane error (e.g. a degenerate DHE
					// shared secret): retrying cannot fix the input, and the
					// hardware did nothing wrong, so it resolves now without
					// feeding the breaker or the retry machinery.
					s.finish(q, Result{Err: laneErrs[i], BatchFill: fill, Attempts: attempt}, nil)
				}
			}
			if b.work.Class() == phiwork.ClassHeavy {
				s.observePass(time.Since(passStart))
			}
			s.tracePass(w, b, passStart, bd, fill, attempt, cycles, phases, transient)
			s.breaker.record(transient > 0, probe)
		}
		probe = false // only this batch's first pass can be the probe
		if len(faulted) == 0 {
			return
		}
		// Faulted lanes are retry candidates for a sibling card first:
		// its hardware is an independent fault domain, so a retry there
		// dodges whatever is wrong here.
		faulted = faulted[s.offerSteal(b.work, faulted, StealFaultRetry):]
		// A lane that expired or was abandoned during the failed pass must
		// not ride a retry either.
		faulted = s.dropDeadLanes(faulted, "retry")
		if len(faulted) == 0 {
			return
		}
		attempt++
		if attempt > s.cfg.Resilience.MaxRetries || !s.breaker.healthy() {
			s.runScalarOn(w.scalarEngine(), faulted, attempt, w.tid())
			return
		}
		if !s.cfg.Resilience.Budget.Allow(len(faulted)) {
			// The shared retry budget is dry: recovery work would amplify
			// the overload, so degrade straight to the scalar fallback.
			s.stats.budgetDenied.Add(int64(len(faulted)))
			s.cfg.Journeys.Trigger("retry-budget-exhausted", map[string]any{
				"card": s.cfg.Card, "lanes": len(faulted), "attempt": attempt,
			})
			s.runScalarOn(w.scalarEngine(), faulted, attempt, w.tid())
			return
		}
		s.stats.retries.Add(int64(len(faulted)))
		if note := journeyNote(faulted, func() string {
			return "attempt=" + fmt.Sprint(attempt)
		}); note != "" {
			for _, q := range faulted {
				q.journey.Event("retry", s.cfg.Card, note)
			}
		}
		s.tracer.Instant(w.tid(), "retry",
			telemetry.Args{"lanes": len(faulted), "attempt": attempt})
		pending = faulted
	}
}

// tracePass emits one kernel pass as a slice on the worker's track, with
// the workload's pass segments nested inside (the flame-graph view: the
// Bellcore-verified CRT quartet for the private-op kinds, a single "exp"
// span for the DHE and public kinds), and the cycle attribution riding in
// the args. The segment slices are laid out back to back from the pass
// start; context setup between them surfaces as the slice tail rather
// than as gaps.
func (s *Server) tracePass(w *worker, b *batch, start time.Time, bd *phiwork.Breakdown,
	fill, attempt int, cycles float64, phases knc.PhaseCycles, faulted int) {
	if s.tracer == nil {
		return
	}
	args := telemetry.Args{
		"key":           b.work.Tag(),
		"workload":      string(b.work.Kind()),
		"fill":          fill,
		"attempt":       attempt,
		"sim_cycles":    cycles,
		"worker_cycles": w.meter.Cycles(),
	}
	for p := 0; p < vbatch.NumPhases; p++ {
		if phases[p] != 0 {
			args["cycles_"+vbatch.PhaseName(vpu.Phase(p))] = phases[p]
		}
	}
	if faulted > 0 {
		args["faulted_lanes"] = faulted
	}
	s.tracer.Slice(w.tid(), "pass", start, time.Since(start), args)
	t := start
	for _, seg := range bd.Segments {
		s.tracer.Slice(w.tid(), seg.Name, t, seg.Wall, nil)
		t = t.Add(seg.Wall)
	}
	if faulted > 0 {
		s.tracer.Instant(w.tid(), "fault-detected",
			telemetry.Args{"lanes": faulted, "attempt": attempt})
	}
}

// awaitStallRelease parks a stalled execution. It returns true when Close
// released it for a graceful drain (serve leftovers via the scalar path)
// and false when the server was canceled (fail leftovers).
func (s *Server) awaitStallRelease() bool {
	select {
	case <-s.release:
		return true
	case <-s.ctx.Done():
		return false
	}
}

// runScalarOn serves requests one at a time on each workload's scalar
// fallback path — the degraded mode. For the private-op kinds that is the
// non-CRT verified op: a fault cannot leak a factor of N even in
// principle, and the scalar engine never touches the (possibly sick)
// vector unit. Each op appears in the trace as a "fallback-op" slice on
// the given track.
func (s *Server) runScalarOn(eng engine.Engine, reqs []*request, attempts int, tid int64) {
	for _, q := range reqs {
		if q.done.Load() {
			continue
		}
		// Scalar ops are serial and slow; re-judge each lane right before
		// spending an op on it so a deadline that expires mid-drain stops
		// costing cycles immediately.
		if q.ctxDone() {
			q.journey.Event("checkpoint", s.cfg.Card, "scalar")
			s.finish(q, Result{Err: ErrCanceled}, s.stats.canceledLanes)
			continue
		}
		if q.expiredAt(time.Now()) {
			q.journey.Event("checkpoint", s.cfg.Card, "scalar")
			s.finish(q, Result{Err: ErrDeadlineExceeded}, s.stats.expiredLanes)
			continue
		}
		q.journey.Event("fallback", s.cfg.Card, "attempt="+fmt.Sprint(attempts))
		eng.Reset()
		opStart := time.Now()
		m, err := q.work.ExecuteScalar(eng, q.in)
		cycles := eng.Cycles()
		simLat := s.cfg.Machine.Latency(s.cfg.Workers, cycles)
		s.tracer.Slice(tid, "fallback-op", opStart, time.Since(opStart),
			telemetry.Args{"journey": q.journey.ID(), "sim_cycles": cycles, "attempt": attempts})
		if err != nil {
			s.finish(q, Result{Err: err, Fallback: true, Attempts: attempts}, nil)
			continue
		}
		s.finish(q, Result{
			M:           m,
			BatchFill:   1,
			BatchCycles: cycles,
			SimLatency:  simLat,
			Fallback:    true,
			Attempts:    attempts,
		}, nil)
	}
}

// retryTimedOut re-dispatches a batch that exceeded ExecTimeout (its
// stalled worker was just respawned): back onto its sealed list while
// retry budget remains; otherwise — or when QueueDepth batches of its
// class are already waiting — it serves the leftovers inline on a fresh
// scalar engine. Runs on the respawned worker's own loop, so inline
// scalar work here occupies exactly the hardware thread that stalled.
func (s *Server) retryTimedOut(b *batch) {
	nb := &batch{
		work:       b.work,
		reqs:       s.dropDeadLanes(b.reqs, "timeout-retry"),
		fallback:   b.fallback,
		attempts:   b.attempts + 1,
		enqueuedAt: time.Now(),
	}
	if len(nb.reqs) == 0 {
		return
	}
	s.tracer.Instant(s.ctl(), "batch-timeout",
		telemetry.Args{"lanes": len(nb.reqs), "attempt": nb.attempts})
	if !nb.fallback && nb.attempts <= s.cfg.Resilience.MaxRetries && s.breaker.healthy() {
		budget := s.cfg.Resilience.Budget
		if budget.Allow(len(nb.reqs)) {
			if s.push(nb, s.cfg.QueueDepth) == nil {
				return
			}
			// Withdrawn but not re-dispatched (queue full): give the
			// tokens back before degrading to scalar.
			budget.Refund(len(nb.reqs))
		} else {
			s.stats.budgetDenied.Add(int64(len(nb.reqs)))
			s.cfg.Journeys.Trigger("retry-budget-exhausted", map[string]any{
				"card": s.cfg.Card, "lanes": len(nb.reqs), "attempt": nb.attempts,
			})
		}
	}
	// Before burning this hardware thread on inline scalar ops, let a
	// sibling card pick up the leftovers.
	rest := nb.reqs[s.offerSteal(nb.work, nb.reqs, StealFaultRetry):]
	s.runScalarOn(baseline.NewMPSS(), rest, nb.attempts, s.ctl())
}
