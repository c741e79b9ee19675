package phiserve

import (
	"errors"
	"strconv"
	"time"

	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/telemetry"
)

// This file is the card queue: the one structure, guarded by Server.mu,
// that holds every workload's open batch and each class's FIFO list of
// sealed batches, and the worker loop that pulls from it.
//
//	SubmitWork, Adopt --append--> open[w] --16 lanes or fill deadline--> sealed[class] --> worker
//
// Nothing that resolves a request, calls the steal hook or takes another
// card's lock runs under the lock (journey events, plain appends, do):
// dead-lane drops, steal offers and sheds happen between taking a batch
// out of open and pushing it onto its sealed list. A batch
// in that gap is counted in Server.sealing, so Close cannot start the
// drain while one is still on its way to the queue.

// pending is one workload's open batch: the requests accumulated since its
// buffer was last empty, plus the fill-deadline timer. The timer seals the
// batch only while open still maps its workload to this very *pending, so
// a timer that races its own Stop (the batch already sealed full, or
// Close flushed it) does nothing.
type pending struct {
	work     phiwork.Workload
	reqs     []*request
	timer    *time.Timer
	openedAt time.Time // first request's arrival, for the fill-window slice
}

// classes lists the sealed lists in pull order: a free worker takes the
// oldest light batch before any heavy one.
var classes = [...]phiwork.Class{phiwork.ClassLight, phiwork.ClassHeavy}

// fullLocked reports whether class c is closed to new lanes: 2*QueueDepth
// sealed batches wait, a full dispatch queue plus a QueueDepth-deep
// overflow. SubmitWork blocks on it and Adopt gives its ops back. Caller
// holds s.mu.
func (s *Server) fullLocked(c phiwork.Class) bool {
	return len(s.sealed[c]) >= 2*s.cfg.QueueDepth
}

// addLocked appends q to its workload's open batch, opening one (and
// arming its fill deadline) if there is none. When the lane fills the
// batch it is taken out of open and returned; the caller seals it after
// releasing the lock. Caller holds s.mu.
func (s *Server) addLocked(q *request) *pending {
	p := s.open[q.work]
	if p == nil {
		p = &pending{work: q.work, openedAt: time.Now()}
		p.timer = time.AfterFunc(s.cfg.FillDeadline, func() { s.deadlineSeal(p) })
		s.open[q.work] = p
	}
	p.reqs = append(p.reqs, q)
	s.stats.pendingLanes.Add(1)
	if len(p.reqs) < BatchSize {
		return nil
	}
	s.takeLocked(p)
	return p
}

// takeLocked removes p from open and stops its timer. The caller must
// hand p to seal, which marks the end of the gap. Caller holds s.mu.
func (s *Server) takeLocked(p *pending) {
	delete(s.open, p.work)
	p.timer.Stop()
	s.stats.pendingLanes.Add(float64(-len(p.reqs)))
	s.sealing.Add(1)
}

// deadlineSeal is the fill-deadline timer: it seals p if p is still its
// workload's open batch.
func (s *Server) deadlineSeal(p *pending) {
	s.mu.Lock()
	if s.open[p.work] != p {
		s.mu.Unlock()
		return
	}
	s.takeLocked(p)
	s.mu.Unlock()
	s.stats.deadlineFires.Inc()
	s.seal(p, true)
}

// seal turns a batch taken out of open into a sealed batch. Its lanes pass
// the seal checkpoint first: lanes whose submitter canceled while they
// buffered, or whose deadline already expired, resolve here instead of
// riding a kernel pass. A deadline-fired partial batch is then offered to
// the work-stealing hook; a sibling card may have lanes of the same
// workload open, or simply be idle.
func (s *Server) seal(p *pending, byDeadline bool) {
	defer s.sealing.Done()
	if s.tracer != nil {
		s.tracer.Slice(s.ctl(), "batch-fill", p.openedAt, time.Since(p.openedAt),
			telemetry.Args{"lanes": len(p.reqs), "key": p.work.Tag()})
	}
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
		reqs = reqs[s.offerSteal(p.work, reqs, StealPartialDeadline):]
		if len(reqs) == 0 {
			return
		}
	}
	s.pushOrFail(&batch{work: p.work, reqs: reqs})
}

// pushOrFail pushes a sealed batch with the shed bound, resolving its
// lanes with the push's error when the queue refuses it.
func (s *Server) pushOrFail(b *batch) {
	err := s.push(b, s.cfg.QueueDepth+s.cfg.OverflowCap)
	if err == nil {
		return
	}
	var checkpoint *telemetry.Counter
	if errors.Is(err, ErrOverloaded) {
		checkpoint = s.stats.overflowDropped
	}
	for _, q := range b.reqs {
		s.finish(q, Result{Err: err}, checkpoint)
	}
}

// push appends b to its class's sealed list and wakes a worker. It never
// blocks: with limit batches of the class already waiting it refuses b
// with ErrOverloaded (seals shed the newest batch this way; timeout
// retries pass QueueDepth and serve a refused batch inline), and on a
// canceled server with ErrCanceled. A batch that finds QueueDepth of its
// class waiting is an overflow: counted, and stamped on its journeys.
func (s *Server) push(b *batch, limit int) error {
	cls := b.work.Class()
	b.enqueuedAt = time.Now()
	s.mu.Lock()
	n := len(s.sealed[cls])
	switch {
	case s.ctx.Err() != nil:
		s.mu.Unlock()
		return ErrCanceled
	case n >= limit:
		s.mu.Unlock()
		return ErrOverloaded
	}
	s.sealed[cls] = append(s.sealed[cls], b)
	if n >= s.cfg.QueueDepth {
		s.stats.overflowed.Inc()
		if note := journeyNote(b.reqs, func() string {
			return "depth=" + strconv.Itoa(n+1-s.cfg.QueueDepth) + " class=" + cls.String()
		}); note != "" {
			for _, q := range b.reqs {
				q.journey.Event("overflow", s.cfg.Card, note)
			}
		}
	}
	s.depthChangedLocked()
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default: // every worker already has a wake-up pending
	}
	return nil
}

// popLocked takes the oldest sealed light batch, or else the oldest heavy
// one, and reopens the class to blocked submitters once it drops below
// its bound. Caller holds s.mu.
func (s *Server) popLocked() *batch {
	for _, cls := range classes {
		q := s.sealed[cls]
		if len(q) == 0 {
			continue
		}
		// Shift down rather than reslice: q[1:] would strand the array's
		// front, and every push after the list empties would reallocate.
		b := q[0]
		n := copy(q, q[1:])
		q[n] = nil // release the batch to the GC
		s.sealed[cls] = q[:n]
		if s.room[cls] != nil && !s.fullLocked(cls) {
			close(s.room[cls])
			s.room[cls] = nil
		}
		s.depthChangedLocked()
		return b
	}
	return nil
}

// depthChangedLocked republishes the sealed lists' depths: per class, the
// first QueueDepth batches are the dispatch queue (phiserve_queue_depth)
// and the rest its overflow (phiserve_dispatch_overflow_depth). Caller
// holds s.mu.
func (s *Server) depthChangedLocked() {
	over := 0
	for cls, q := range s.sealed {
		s.stats.queueDepth[cls].Set(float64(min(len(q), s.cfg.QueueDepth)))
		over += max(len(q)-s.cfg.QueueDepth, 0)
	}
	s.stats.overflowDepth.Set(float64(over))
}

// waiting is the number of sealed batches in the card queue, read from
// the depth gauges so routers and the door never take the card lock.
func (s *Server) waiting() float64 {
	return s.stats.queueDepth[phiwork.ClassHeavy].Value() +
		s.stats.queueDepth[phiwork.ClassLight].Value() + s.stats.overflowDepth.Value()
}

// failQueued resolves everything the card queue still holds — open
// batches and sealed lists — with ErrCanceled. It is the sweep Start
// schedules for the server's context ending, and each worker runs it
// again as it exits on cancellation; a second run finds nothing.
func (s *Server) failQueued() {
	s.mu.Lock()
	var reqs []*request
	for w, p := range s.open {
		p.timer.Stop()
		s.stats.pendingLanes.Add(float64(-len(p.reqs)))
		reqs = append(reqs, p.reqs...)
		delete(s.open, w)
	}
	for cls, q := range s.sealed {
		for _, b := range q {
			s.stats.batchesRejected.Inc()
			reqs = append(reqs, b.reqs...)
		}
		s.sealed[cls] = nil
	}
	s.depthChangedLocked()
	s.mu.Unlock()
	for _, q := range reqs {
		s.finish(q, Result{Err: ErrCanceled}, nil)
	}
}

// next blocks until a sealed batch is available and takes it. It returns
// nil once the queue is drained after Close, or when the server is
// canceled; then it fails what is still queued itself, since a Close
// under way may already have unscheduled the sweep.
func (s *Server) next() *batch {
	for {
		if s.ctx.Err() != nil {
			s.failQueued()
			return nil
		}
		// Read drained before looking at the queue: once it is closed no
		// seal can reach the queue anymore, so an empty queue stays empty
		// (a timeout retry is pushed by the worker that then pulls it).
		drained := false
		select {
		case <-s.drained:
			drained = true
		default:
		}
		s.mu.Lock()
		b := s.popLocked()
		s.mu.Unlock()
		if b != nil || drained {
			return b
		}
		select {
		case <-s.wake:
		case <-s.drained:
		case <-s.ctx.Done():
		}
	}
}

// work is one simulated hardware thread: it pulls sealed batches, stamps
// their dequeue, drops a batch none of whose lanes is still live, and
// runs the rest. With an ExecTimeout a pass that overruns it is abandoned
// to a zombie goroutine and the worker respawns with fresh state.
func (s *Server) work(slot int) {
	defer s.workers.Done()
	w := s.newWorker()
	for b := s.next(); b != nil; b = s.next() {
		s.observeDequeue(slot, b)
		// Lane death is monotone (a canceled or expired lane never comes
		// back), so nothing can bring the batch back to life between the
		// check and the drop.
		if s.batchDead(b) {
			s.stats.batchesExpired.Inc()
			s.dropDeadLanes(b.reqs, "dequeue")
			continue
		}
		if s.cfg.Resilience.ExecTimeout <= 0 {
			s.runBatch(w, b)
			s.stats.batchesRun.Inc()
			continue
		}
		w = s.runMonitored(w, b)
	}
}

// runMonitored runs b on w bounded by ExecTimeout and returns the worker
// state to continue with: w when the pass finished in time, a fresh
// worker when it stalled. The stalled execution keeps running on the old
// state as a zombie — Go cannot kill it — until Close releases it; Close
// waits for it.
func (s *Server) runMonitored(w *worker, b *batch) *worker {
	done := make(chan struct{})
	s.zombies.Add(1)
	go func() {
		defer s.zombies.Done()
		s.runBatch(w, b)
		close(done)
	}()
	t := time.NewTimer(s.cfg.Resilience.ExecTimeout)
	defer t.Stop()
	select {
	case <-done:
		s.stats.batchesRun.Inc()
		return w
	case <-t.C:
		s.stats.timedOut.Inc()
		s.stats.respawns.Inc()
		fresh := s.newWorker() // the wedged thread's state is abandoned
		s.retryTimedOut(b)
		return fresh
	}
}
