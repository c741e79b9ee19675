package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/phiadmit"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/vpu"
)

// span is one kernel pass (or one scalar op) as seen at the phiwork seam.
type span struct {
	kind       phiwork.Kind
	start, end int64
	ins        []phiwork.Input
	scalar     bool
}

// tracer keeps the spans of a traced run in memory.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset drops the spans recorded so far (warm-up) and re-bases the clock.
func (t *tracer) reset(epoch time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch = epoch
	t.spans = nil
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// tracedWork wraps a canonical workload, timing its two execution paths.
// Kind, Class, Tag and RouteBytes pass through unchanged, and one wrapper
// per kind keeps batching by pointer identity intact.
type tracedWork struct {
	phiwork.Workload
	t *tracer
}

func (w *tracedWork) ExecuteBatch(be vpu.Backend, ins []phiwork.Input) ([]bn.Nat, []error, *phiwork.Breakdown, error) {
	start := w.t.now()
	out, errs, bd, err := w.Workload.ExecuteBatch(be, ins)
	w.t.add(span{kind: w.Kind(), start: start, end: w.t.now(), ins: ins})
	return out, errs, bd, err
}

func (w *tracedWork) ExecuteScalar(eng engine.Engine, in phiwork.Input) (bn.Nat, error) {
	start := w.t.now()
	out, err := w.Workload.ExecuteScalar(eng, in)
	w.t.add(span{kind: w.Kind(), start: start, end: w.t.now(), ins: []phiwork.Input{in}, scalar: true})
	return out, err
}

// tracedBackend wraps the backend the client or the admission door calls,
// stamping the SubmitWork call onto the request's record.
type tracedBackend struct {
	phiadmit.Backend
	t *tracer
}

func (b *tracedBackend) SubmitWork(ctx context.Context, w phiwork.Workload, in phiwork.Input, opts phiserve.SubmitOpts) (<-chan phiserve.Result, error) {
	start := b.t.now()
	ch, err := b.Backend.SubmitWork(ctx, w, in, opts)
	if r, ok := ctx.Value(recordKey{}).(*record); ok {
		r.bsub, r.bret = start, b.t.now()
	}
	return ch, err
}

// matchLanes maps every completed request to the one span that served it:
// a span of the request's kind that holds its input and lies between the
// request's submit call and its receipt. Inputs are unique among requests
// in flight, so there must be exactly one. Every lane of every span must
// likewise belong to exactly one completed request. The result holds the
// span index per record, -1 for requests that never completed.
func matchLanes(recs []record, spans []span, pools []*pool) ([]int, error) {
	type laneRef struct{ span, lane int }
	byInput := make(map[[2]int][]laneRef)
	kindPool := make(map[phiwork.Kind]int, len(pools))
	for i, p := range pools {
		kindPool[p.kind] = i
	}
	for si, s := range spans {
		pi, ok := kindPool[s.kind]
		if !ok {
			return nil, fmt.Errorf("span %d: kind %s is not in the mix", si, s.kind)
		}
		for li, in := range s.ins {
			idx, ok := pools[pi].index[inputKey(in)]
			if !ok {
				return nil, fmt.Errorf("span %d lane %d: input not drawn by the benchmark", si, li)
			}
			k := [2]int{pi, idx}
			byInput[k] = append(byInput[k], laneRef{si, li})
		}
	}
	claimed := make(map[laneRef]bool)
	match := make([]int, len(recs))
	for ri := range recs {
		r := &recs[ri]
		match[ri] = -1
		if r.recv == 0 || (r.outcome != outOK && r.outcome != outWrong) {
			continue
		}
		found := 0
		for _, lr := range byInput[[2]int{r.pool, r.input}] {
			s := spans[lr.span]
			if s.start >= r.sub && s.end <= r.recv {
				found++
				match[ri] = lr.span
				claimed[lr] = true
			}
		}
		if found != 1 {
			return nil, fmt.Errorf("request %d (%s input %d) matches %d spans, want 1",
				ri, pools[r.pool].kind, r.input, found)
		}
	}
	for _, lanes := range byInput {
		for _, lr := range lanes {
			if !claimed[lr] {
				return nil, fmt.Errorf("span %d lane %d served no completed request", lr.span, lr.lane)
			}
		}
	}
	return match, nil
}

// stages is one completed request's latency split at the layer seams.
type stages struct {
	gen     int64 // scheduled send to submit call (open loops only)
	door    int64 // client submit call minus the backend call
	submit  int64 // backend SubmitWork call: route, card intake, backpressure
	wait    int64 // intake return to pass start
	pass    int64 // the serving pass or scalar op
	deliver int64 // pass end to result received
}

func (s stages) sum() int64 { return s.gen + s.door + s.submit + s.wait + s.pass + s.deliver }

// stageTolerance is how far the stage sum may drift from the measured
// latency.
const stageTolerance = int64(time.Microsecond)

// splitStages derives r's stages from its matched span s and checks them:
// the backend call nests inside the client call, the span lies inside the
// request's life, and the stages add up to the measured latency. wait is
// negative when a pass began before the intake call returned.
func splitStages(r *record, s *span, open bool) (stages, error) {
	st := stages{
		submit:  r.bret - r.bsub,
		wait:    s.start - r.ret,
		pass:    s.end - s.start,
		deliver: r.recv - s.end,
	}
	st.door = (r.ret - r.sub) - st.submit
	if open {
		st.gen = r.sub - r.ready
	}
	switch {
	case r.bsub == 0 || r.bsub < r.sub || r.bret > r.ret || r.bret < r.bsub:
		return st, fmt.Errorf("backend call [%d,%d] outside the client call [%d,%d]", r.bsub, r.bret, r.sub, r.ret)
	case s.start < r.sub || s.end > r.recv:
		return st, fmt.Errorf("pass [%d,%d] outside the request [%d,%d]", s.start, s.end, r.sub, r.recv)
	}
	if d := st.sum() - r.latency(open); d > stageTolerance || d < -stageTolerance {
		return st, fmt.Errorf("stages sum to %dns, latency is %dns", st.sum(), r.latency(open))
	}
	return st, nil
}
