package phiserve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/vpu"
)

// stallFirstPass returns a fault script whose first n passes wedge their
// worker.
func stallFirstPass(n int) *faultsim.Config {
	script := make([]faultsim.PassOutcome, n)
	for i := range script {
		script[i] = faultsim.PassStall
	}
	return &faultsim.Config{Seed: 1, Script: script}
}

// submitBatch submits BatchSize requests of testWork with opts and returns
// their response channels.
func submitBatch(t *testing.T, s *Server, opts SubmitOpts) []<-chan Result {
	t.Helper()
	out := make([]<-chan Result, BatchSize)
	for i := range out {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: bn.One()}, opts)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		out[i] = ch
	}
	return out
}

// waitStats polls Stats until cond holds, failing after five seconds.
func waitStats(t *testing.T, s *Server, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(s.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats: %+v", what, s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBlockedSubmitReturnsCtxErr: SubmitWork blocks while its class has
// 2*QueueDepth sealed batches waiting, and a blocked call returns its own
// context's error when that context ends first. The request is never
// admitted; everything admitted before it still resolves.
func TestBlockedSubmitReturnsCtxErr(t *testing.T) {
	s, err := New(Config{
		Workers:      1,
		QueueDepth:   1,
		FillDeadline: time.Minute,
		Resilience: Resilience{
			// ExecTimeout stays 0: the stalled worker parks until Close,
			// so the sealed list cannot drain.
			BreakerThreshold: 2,
			Faults:           stallFirstPass(BatchSize),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())

	// Batch 1 parks the worker; batches 2 and 3 fill the class's bound.
	live := submitBatch(t, s, SubmitOpts{})
	waitStats(t, s, "worker stall", func(st Stats) bool { return st.StalledPasses >= 1 })
	live = append(live, submitBatch(t, s, SubmitOpts{})...)
	live = append(live, submitBatch(t, s, SubmitOpts{})...)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.SubmitWork(ctx, testWork, phiwork.Input{A: bn.One()}, SubmitOpts{})
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("SubmitWork into a full class returned %v instead of blocking", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked SubmitWork returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked SubmitWork did not return after its context ended")
	}

	s.Close()
	for i, ch := range live {
		if res := <-ch; res.Err != nil {
			t.Fatalf("admitted request %d: %v", i, res.Err)
		}
	}
	if st := s.Stats(); st.Submitted != int64(len(live)) || st.Completed != int64(len(live)) {
		t.Fatalf("the canceled submit was admitted: %+v", st)
	}
}

// TestDeadBatchDroppedAtDequeue: a batch sealed with live lanes whose
// deadlines all pass while it waits in the card queue is dropped when a
// worker takes it: every lane resolves with ErrDeadlineExceeded at the
// dequeue checkpoint and no kernel pass runs for it.
func TestDeadBatchDroppedAtDequeue(t *testing.T) {
	s, err := New(Config{
		Workers:      1,
		FillDeadline: time.Minute,
		Resilience: Resilience{
			BreakerThreshold: 2,
			Faults:           stallFirstPass(1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())

	// Batch 1 parks the only worker until Close; batch 2 seals full while
	// its lanes are live, then expires in the queue behind it.
	first := submitBatch(t, s, SubmitOpts{})
	waitStats(t, s, "worker stall", func(st Stats) bool { return st.StalledPasses >= 1 })
	expiring := submitBatch(t, s, SubmitOpts{Deadline: time.Now().Add(100 * time.Millisecond)})
	waitStats(t, s, "batch 2 sealed", func(st Stats) bool { return st.QueueDepth == 1 })
	time.Sleep(150 * time.Millisecond)

	s.Close()
	for i, ch := range first {
		if res := <-ch; res.Err != nil {
			t.Fatalf("first-batch request %d: %v", i, res.Err)
		}
	}
	for i, ch := range expiring {
		if res := <-ch; !errors.Is(res.Err, ErrDeadlineExceeded) {
			t.Fatalf("expired request %d: %v, want ErrDeadlineExceeded", i, res.Err)
		}
	}
	st := s.Stats()
	if st.Batches != 0 {
		t.Fatalf("a kernel pass ran: %+v", st)
	}
	if st.ExpiredLanes != BatchSize {
		t.Fatalf("ExpiredLanes = %d, want %d", st.ExpiredLanes, BatchSize)
	}
	if n := s.stats.batchesExpired.Value(); n != 1 {
		t.Fatalf("%d batches dropped at dequeue, want 1", n)
	}
}

// TestFastPassesNeverRespawn: passes that finish within ExecTimeout never
// trip the stall bound, so no worker respawns and every batch counts as
// run.
func TestFastPassesNeverRespawn(t *testing.T) {
	s, err := New(Config{
		Workers:      2,
		FillDeadline: time.Millisecond,
		Resilience:   Resilience{ExecTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	var resps []<-chan Result
	for i := 0; i < 4; i++ {
		resps = append(resps, submitBatch(t, s, SubmitOpts{})...)
	}
	for i, ch := range resps {
		if res := <-ch; res.Err != nil || res.Fallback {
			t.Fatalf("request %d: %+v", i, res)
		}
	}
	s.Close()
	st := s.Stats()
	if st.TimedOutBatches != 0 || st.WorkerRespawns != 0 {
		t.Fatalf("fast passes timed out: timeouts=%d respawns=%d", st.TimedOutBatches, st.WorkerRespawns)
	}
	if run := s.stats.batchesRun.Value(); run != st.Batches || run == 0 {
		t.Fatalf("%d batches run, %d passes executed", run, st.Batches)
	}
}

// TestCloseWaitsForStalledZombie: Close returns only after a stalled
// pass's zombie goroutine has finished. The stall bound respawns the
// worker and offers the batch to the steal hook, which accepts it and
// loses it, so only the zombie, released by Close, can still serve those
// lanes: each must already hold its result when Close returns.
func TestCloseWaitsForStalledZombie(t *testing.T) {
	s, err := New(Config{
		Workers:      1,
		FillDeadline: time.Minute,
		Resilience: Resilience{
			MaxRetries:       -1,
			ExecTimeout:      50 * time.Millisecond,
			BreakerThreshold: 2,
			Faults:           stallFirstPass(1),
		},
		Redispatch: func(_ phiwork.Workload, ops []StolenOp, reason StealReason) int {
			if reason != StealFaultRetry {
				return 0
			}
			return len(ops)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	resps := submitBatch(t, s, SubmitOpts{})
	waitStats(t, s, "stall timeout", func(st Stats) bool { return st.WorkerRespawns >= 1 })

	s.Close()
	for i, ch := range resps {
		select {
		case res := <-ch:
			if res.Err != nil || !res.Fallback {
				t.Fatalf("request %d: %+v, want the zombie's scalar result", i, res)
			}
		default:
			t.Fatalf("request %d unresolved when Close returned: Close did not wait for the zombie", i)
		}
	}
	if st := s.Stats(); st.StalledPasses != 1 || st.TimedOutBatches != 1 {
		t.Fatalf("stall accounting: %+v", st)
	}
}

// TestServerValidation: the server's lifecycle guards. A machine without
// hardware threads is refused and Workers is clamped to the machine's
// threads. Before Start the card queue takes nothing (SubmitWork returns
// ErrNotStarted, Adopt takes no op) and Close is a no-op; a second Start
// panics; after Close, Adopt takes nothing again.
func TestServerValidation(t *testing.T) {
	if _, err := New(Config{Machine: knc.Machine{Name: "dead", Cores: 3}}); err == nil {
		t.Fatal("zero-thread machine accepted")
	}
	small := knc.Machine{Name: "small", Cores: 1, ThreadsPerCore: 2, ClockHz: 1e9}
	s, err := New(Config{Machine: small, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config().Workers; got != small.MaxThreads() {
		t.Fatalf("Workers = %d on a %d-thread machine", got, small.MaxThreads())
	}
	if _, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: bn.One()}, SubmitOpts{}); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("SubmitWork before Start: %v", err)
	}
	op := []StolenOp{{q: &request{work: testWork, in: phiwork.Input{A: bn.One()}, resp: make(chan Result, 1)}}}
	if n := s.Adopt(op); n != 0 {
		t.Fatalf("Adopt before Start took %d ops", n)
	}
	s.Close() // nothing started: returns at once

	s.Start(context.Background())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Start did not panic")
			}
		}()
		s.Start(context.Background())
	}()
	s.Close()
	if n := s.Adopt(op); n != 0 {
		t.Fatalf("Adopt after Close took %d ops", n)
	}
}

// TestServerRunsAllJobsAndDrainsOnClose: a graceful Close runs every
// sealed batch still waiting in the card queue, and the open partial
// batch, before it returns. With QueueDepth 1 the submit loop runs into
// the class bound while the queue backs up; nothing is shed, failed or
// rejected, and every request holds its result when Close returns.
func TestServerRunsAllJobsAndDrainsOnClose(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueDepth: 1, FillDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	const n = 8*BatchSize + 5
	resps := make([]<-chan Result, n)
	for i := range resps {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: bn.One()}, SubmitOpts{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		resps[i] = ch
	}
	s.Close()
	for i, ch := range resps {
		select {
		case res := <-ch:
			if res.Err != nil || !res.M.Equal(bn.One()) {
				t.Fatalf("request %d: %+v", i, res)
			}
		default:
			t.Fatalf("request %d unresolved when Close returned", i)
		}
	}
	st := s.Stats()
	if st.Completed != n || st.Failed != 0 || st.Batches != 9 {
		t.Fatalf("stats %+v after draining %d requests in 9 batches", st, n)
	}
	if rej := s.stats.batchesRejected.Value(); rej != 0 {
		t.Fatalf("graceful close rejected %d batches", rej)
	}
	if _, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: bn.One()}, SubmitOpts{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitWork after Close: %v", err)
	}
	s.Close() // idempotent
}

// TestServerCancelRejectsQueuedResolvesEverything: canceling the server's
// context rejects everything the card queue holds. The only worker is
// parked in a stalled pass while three sealed batches and an open partial
// batch wait behind it. After the cancel SubmitWork returns ErrCanceled,
// every queued lane resolves with ErrCanceled, the in-flight lanes
// resolve one way or the other, and each request resolves exactly once.
func TestServerCancelRejectsQueuedResolvesEverything(t *testing.T) {
	s, err := New(Config{
		Workers:      1,
		QueueDepth:   4,
		FillDeadline: time.Minute,
		Resilience: Resilience{
			// ExecTimeout stays 0: the stalled worker parks until the
			// cancel, so nothing leaves the queue.
			BreakerThreshold: 2,
			Faults:           stallFirstPass(1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	inFlight := submitBatch(t, s, SubmitOpts{})
	waitStats(t, s, "worker stall", func(st Stats) bool { return st.StalledPasses >= 1 })
	var queued []<-chan Result
	for i := 0; i < 3; i++ {
		queued = append(queued, submitBatch(t, s, SubmitOpts{})...)
	}
	for i := 0; i < 5; i++ {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: bn.One()}, SubmitOpts{})
		if err != nil {
			t.Fatalf("open-batch submit %d: %v", i, err)
		}
		queued = append(queued, ch)
	}

	cancel()
	if _, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: bn.One()}, SubmitOpts{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("SubmitWork after cancel: %v", err)
	}
	s.Close()

	for i, ch := range queued {
		select {
		case res := <-ch:
			if !errors.Is(res.Err, ErrCanceled) {
				t.Fatalf("queued request %d: %+v, want ErrCanceled", i, res)
			}
		default:
			t.Fatalf("queued request %d unresolved after Close", i)
		}
	}
	for i, ch := range inFlight {
		select {
		case res := <-ch:
			if res.Err != nil && !errors.Is(res.Err, ErrCanceled) || res.Err == nil && !res.M.Equal(bn.One()) {
				t.Fatalf("in-flight request %d: %+v", i, res)
			}
		default:
			t.Fatalf("in-flight request %d unresolved after Close", i)
		}
	}
	// Exactly once: each response channel is buffered(1) and must now be
	// empty.
	for i, ch := range append(inFlight, queued...) {
		select {
		case res := <-ch:
			t.Fatalf("request %d resolved twice; second result: %+v", i, res)
		default:
		}
	}
	st := s.Stats()
	if total := int64(len(inFlight) + len(queued)); st.Completed+st.Failed != total || st.Failed < int64(len(queued)) {
		t.Fatalf("stats %+v for %d requests, %d of them queued", st, total, len(queued))
	}
	if rej := s.stats.batchesRejected.Value(); rej != 3 {
		t.Fatalf("%d sealed batches rejected, want 3", rej)
	}
}

// TestServerWorkersOwnPrivateState: each worker owns its vector unit and
// scalar engine, so passes running at once on eight workers share no
// state. Eight goroutines submit distinct ciphertexts concurrently; every
// answer must match the per-op reference, and the lanes counted across
// all passes must equal the requests served. Under -race this is the
// canary for state shared between workers.
func TestServerWorkersOwnPrivateState(t *testing.T) {
	const submitters, each = 8, 2 * BatchSize
	nc := 16
	cs, want, _ := perOpAnswers(t, testKey, nc, 106)
	s, err := New(Config{Workers: 8, FillDeadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	errs := make(chan error, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resps := make([]<-chan Result, each)
			for i := range resps {
				ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[(g+i)%nc]}, SubmitOpts{})
				if err != nil {
					errs <- fmt.Errorf("submitter %d request %d: %v", g, i, err)
					return
				}
				resps[i] = ch
			}
			for i, ch := range resps {
				if res := <-ch; res.Err != nil || !res.M.Equal(want[(g+i)%nc]) {
					errs <- fmt.Errorf("submitter %d request %d: %+v", g, i, res)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Close()

	st := s.Stats()
	lanes := int64(0)
	for i, c := range st.FillHist {
		lanes += int64(i+1) * c
	}
	if n := int64(submitters * each); st.Completed != n || lanes != n {
		t.Fatalf("%d lanes counted across %d passes, %d completed; want %d", lanes, st.Batches, st.Completed, n)
	}
	if run := s.stats.batchesRun.Value(); run != st.Batches {
		t.Fatalf("%d batches run, %d passes executed", run, st.Batches)
	}
}

// TestJobTimeoutRespawnsWorker: a pass that stalls past ExecTimeout is
// counted timed out, and its worker respawns with fresh state that runs
// the later batches on its own vector unit while the zombie stays parked
// until Close. Every worker state replays the script OK, stall: the first
// batch runs clean, the second stalls and is served by scalar fallback
// (MaxRetries -1), and the third is the fresh state's first, clean pass.
func TestJobTimeoutRespawnsWorker(t *testing.T) {
	s, err := New(Config{
		Workers:      1,
		FillDeadline: time.Minute,
		Resilience: Resilience{
			MaxRetries:       -1,
			ExecTimeout:      50 * time.Millisecond,
			BreakerThreshold: 2,
			Faults: &faultsim.Config{
				Seed:   1,
				Script: []faultsim.PassOutcome{faultsim.PassOK, faultsim.PassStall},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	for b, wantFallback := range []bool{false, true, false} {
		for i, ch := range submitBatch(t, s, SubmitOpts{}) {
			if res := <-ch; res.Err != nil || !res.M.Equal(bn.One()) || res.Fallback != wantFallback {
				t.Fatalf("batch %d request %d: %+v, want Fallback=%v", b, i, res, wantFallback)
			}
		}
	}
	if st := s.Stats(); st.StalledPasses != 1 || st.TimedOutBatches != 1 || st.WorkerRespawns != 1 {
		t.Fatalf("stall accounting: stalls=%d timeouts=%d respawns=%d, want 1/1/1",
			st.StalledPasses, st.TimedOutBatches, st.WorkerRespawns)
	}
	s.Close() // releases the zombie; its lanes are already resolved

	// One state at Start plus one per respawn.
	if got := s.workerSeq.Load(); got != 2 {
		t.Fatalf("%d worker states built, want 2", got)
	}
	if run := s.stats.batchesRun.Value(); run != 2 {
		t.Fatalf("%d batches counted run, want 2 (the stalled one is not)", run)
	}
	if st := s.Stats(); st.Completed != 3*BatchSize || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// gatedWork is testWork whose kernel passes wait at a gate: each pass
// signals entered (without blocking), then waits until gate is closed.
type gatedWork struct {
	phiwork.Workload
	entered chan struct{}
	gate    chan struct{}
}

func newGatedWork() *gatedWork {
	return &gatedWork{Workload: testWork, entered: make(chan struct{}, 1), gate: make(chan struct{})}
}

func (g *gatedWork) ExecuteBatch(be vpu.Backend, ins []phiwork.Input) ([]bn.Nat, []error, *phiwork.Breakdown, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.Workload.ExecuteBatch(be, ins)
}

// submit submits BatchSize requests of g and returns their response
// channels.
func (g *gatedWork) submit(t *testing.T, s *Server) []<-chan Result {
	t.Helper()
	out := make([]<-chan Result, BatchSize)
	for i := range out {
		ch, err := s.SubmitWork(context.Background(), g, phiwork.Input{A: bn.One()}, SubmitOpts{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		out[i] = ch
	}
	return out
}

// waitEntered waits until a pass of g is holding a worker at the gate.
func (g *gatedWork) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no pass reached the gate")
	}
}

// waitClosed waits for a Close running in the background to return.
func waitClosed(t *testing.T, closed <-chan struct{}) {
	t.Helper()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestCancelDuringCloseDrainResolvesQueued: canceling the server while a
// graceful Close drains still resolves every request exactly once. The
// only worker is inside a pass while three sealed batches wait; Close
// starts the drain, the context is canceled, and then the pass finishes.
// Close has already unscheduled the cancellation sweep by then, so the
// worker, finding the server canceled, must fail the waiting batches
// itself.
func TestCancelDuringCloseDrainResolvesQueued(t *testing.T) {
	g := newGatedWork()
	s, err := New(Config{Workers: 1, QueueDepth: 4, FillDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	inFlight := g.submit(t, s)
	g.waitEntered(t)
	var queued []<-chan Result
	for i := 0; i < 3; i++ {
		queued = append(queued, g.submit(t, s)...)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	<-s.drained
	// Close unschedules the sweep right after it opens the drain.
	time.Sleep(20 * time.Millisecond)
	cancel()
	close(g.gate)
	waitClosed(t, closed)

	for i, ch := range queued {
		select {
		case res := <-ch:
			if !errors.Is(res.Err, ErrCanceled) {
				t.Fatalf("queued request %d: %+v, want ErrCanceled", i, res)
			}
		default:
			t.Fatalf("queued request %d unresolved after Close", i)
		}
	}
	for i, ch := range inFlight {
		select {
		case res := <-ch:
			if res.Err != nil && !errors.Is(res.Err, ErrCanceled) || res.Err == nil && !res.M.Equal(bn.One()) {
				t.Fatalf("in-flight request %d: %+v", i, res)
			}
		default:
			t.Fatalf("in-flight request %d unresolved after Close", i)
		}
	}
	for i, ch := range append(inFlight, queued...) {
		select {
		case res := <-ch:
			t.Fatalf("request %d resolved twice; second result: %+v", i, res)
		default:
		}
	}
	if rej := s.stats.batchesRejected.Value(); rej != 3 {
		t.Fatalf("%d sealed batches rejected, want 3", rej)
	}
}

// TestCloseServesBlockedSubmitter: a SubmitWork blocked on backpressure
// when a graceful Close begins is not turned away. Close waits for it;
// the workers keep draining, so the call enqueues its request, Close
// seals it in the partial batch it flushes, and it is served like every
// request admitted before it.
func TestCloseServesBlockedSubmitter(t *testing.T) {
	g := newGatedWork()
	s, err := New(Config{Workers: 1, QueueDepth: 1, FillDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())

	// Batch 1 holds the worker at the gate; batches 2 and 3 fill the
	// class's bound.
	live := g.submit(t, s)
	g.waitEntered(t)
	live = append(live, g.submit(t, s)...)
	live = append(live, g.submit(t, s)...)

	type submitted struct {
		ch  <-chan Result
		err error
	}
	sub := make(chan submitted, 1)
	go func() {
		ch, err := s.SubmitWork(context.Background(), g, phiwork.Input{A: bn.One()}, SubmitOpts{})
		sub <- submitted{ch, err}
	}()
	poll := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			s.mu.Lock()
			ok := cond()
			s.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	poll("the blocked submitter", func() bool { return s.room[phiwork.ClassHeavy] != nil })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	poll("Close to begin", func() bool { return s.closed })
	close(g.gate)

	var blocked submitted
	select {
	case blocked = <-sub:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked SubmitWork never returned")
	}
	if blocked.err != nil {
		t.Fatalf("SubmitWork blocked when Close began: %v, want it served", blocked.err)
	}
	waitClosed(t, closed)
	for i, ch := range append(live, blocked.ch) {
		select {
		case res := <-ch:
			if res.Err != nil || !res.M.Equal(bn.One()) {
				t.Fatalf("request %d: %+v", i, res)
			}
		default:
			t.Fatalf("request %d unresolved when Close returned", i)
		}
	}
	if st := s.Stats(); st.Submitted != 3*BatchSize+1 || st.Completed != 3*BatchSize+1 || st.Batches != 4 {
		t.Fatalf("stats %+v, want 3 full batches and the flushed partial one served", st)
	}
}
