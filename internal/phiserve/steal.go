package phiserve

import (
	"time"

	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/telemetry"
)

// This file is the work-stealing seam between a single-card Server and a
// multi-card router (internal/phifleet). A server never knows its
// siblings: at the three moments it holds work it would rather not serve
// locally it calls Config.Redispatch, always outside its card lock, with
// the operations wrapped as StolenOp values, and the hook moves however
// many it wants to another server via Adopt. The moved requests are the *same* request objects —
// the done CAS in finish keeps resolution exactly-once no matter which
// card answers — so nothing is re-counted as submitted and the response
// channel the caller holds keeps working.

// StealReason says why a server is offering work to the redispatch hook.
type StealReason int

const (
	// StealPartialDeadline: a fill deadline fired on a partial batch.
	// Executing it here costs a full kernel pass for few lanes; a sibling
	// may have open lanes of the same key, or simply be less loaded.
	StealPartialDeadline StealReason = iota
	// StealFaultRetry: these lanes failed verification and await a retry
	// pass on this (evidently faulty) card; a sibling's hardware is an
	// independent fault domain.
	StealFaultRetry
	// StealDegraded: this card's breaker is open. A healthy sibling can
	// serve the request on the vector path; only when the whole fleet is
	// degraded should it fall to scalar.
	StealDegraded
)

// String names the reason for traces and metric labels.
func (r StealReason) String() string {
	switch r {
	case StealPartialDeadline:
		return "partial-deadline"
	case StealFaultRetry:
		return "fault-retry"
	case StealDegraded:
		return "degraded"
	}
	return "unknown"
}

// StolenOp is one request offered to the redispatch hook. The wrapper
// exposes exactly what a router needs — the hop count for ping-pong
// bounds and liveness for skipping already-resolved work — without
// leaking the request's internals.
type StolenOp struct {
	q    *request
	from *Server
}

// Resolved reports whether the operation has already been answered (a
// racing path can resolve it between the offer and the adoption).
func (o StolenOp) Resolved() bool { return o.q.done.Load() }

// Hops is how many times this operation has been adopted by another
// server; routers should stop moving an op after a few hops.
func (o StolenOp) Hops() int { return int(o.q.hops.Load()) }

// RedispatchFunc is the router's side of the seam. It receives the
// workload, the offered operations (front of the donor's batch) and the
// reason, and returns how many operations — counted from the front — it
// moved to another server via Adopt. The donor keeps the rest. The hook
// runs on the donor's submitting, timer or worker goroutine, never under
// its card lock, so it may read the donor's Load; it must not block on
// the donor (Adopt on a sibling is non-blocking and safe).
type RedispatchFunc func(w phiwork.Workload, ops []StolenOp, reason StealReason) int

// offerSteal runs the redispatch hook over reqs and returns how many
// requests, from the front, the hook took; the caller serves the
// remainder locally. With no hook configured it returns 0.
func (s *Server) offerSteal(w phiwork.Workload, reqs []*request, reason StealReason) int {
	if s.cfg.Redispatch == nil || len(reqs) == 0 {
		return 0
	}
	ops := make([]StolenOp, len(reqs))
	for i, q := range reqs {
		ops[i] = StolenOp{q: q, from: s}
	}
	taken := s.cfg.Redispatch(w, ops, reason)
	if taken < 0 {
		taken = 0
	}
	if taken > len(reqs) {
		taken = len(reqs)
	}
	if taken > 0 {
		s.stats.lanesStolen.Add(int64(taken))
		for _, q := range reqs[:taken] {
			q.journey.Event("steal", s.cfg.Card, reason.String())
		}
		s.tracer.Instant(s.ctl(), "steal", telemetry.Args{
			"lanes": taken, "reason": reason.String(), "key": w.Tag()})
	}
	return taken
}

// Adopt takes ownership of operations stolen from a sibling server,
// appending them to this server's open batches so they aggregate like
// native traffic. It is non-blocking: the return value is how many ops
// were accepted (counted from the front; already-resolved ops count as
// accepted and are dropped). Once an op's class has 2*QueueDepth sealed
// batches waiting — where SubmitWork would block — the remainder goes
// back to the donor. An op adopted here resolves on this card —
// completed/failed accounting lands on the adopter, submitted stays with
// the donor, so fleet-wide sums still balance.
func (s *Server) Adopt(ops []StolenOp) int {
	n := 0
	now := time.Now()
	var dead []*request
	var full []*pending
	s.mu.Lock()
	if !s.started || s.closed || s.ctx.Err() != nil {
		s.mu.Unlock()
		return 0
	}
	for _, o := range ops {
		q := o.q
		// Judge the op before paying to move it: a resolved, expired or
		// abandoned lane counts as taken, so neither card runs it.
		if q.done.Load() || q.ctxDone() || q.expiredAt(now) {
			dead = append(dead, q)
			n++
			continue
		}
		if s.fullLocked(q.work.Class()) {
			break // this card is not as idle as the router thought
		}
		q.hops.Add(1)
		q.journey.Event("adopt", s.cfg.Card, "")
		s.stats.lanesAdopted.Inc()
		if p := s.addLocked(q); p != nil {
			full = append(full, p)
		}
		n++
	}
	s.mu.Unlock()
	s.dropDeadLanes(dead, "adopt")
	for _, p := range full {
		s.seal(p, false)
	}
	return n
}

// Load is a cheap congestion signal for routers: requests buffered in
// open batches plus a lane-count upper bound for the sealed batches
// waiting in the card queue. It reads gauges, never the card lock.
func (s *Server) Load() int {
	return int(s.stats.pendingLanes.Value()) + int(s.waiting())*BatchSize
}

// Degraded reports whether the circuit breaker currently bypasses the
// vector path (open, or half-open with the probe already out). Routers
// use it to route around a sick card.
func (s *Server) Degraded() bool { return s.breaker.degraded() }
