package phiserve

import (
	"context"
	"errors"
	"testing"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/phiwork"
)

// TestSubmitRejectsDeadOnArrival: a canceled context or an already-passed
// deadline is rejected at the door — the request never occupies a lane and
// never reaches the pool.
func TestSubmitRejectsDeadOnArrival(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	defer s.Close()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SubmitWork(canceled, testWork, phiwork.Input{A: bn.One()}, SubmitOpts{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: %v, want context.Canceled", err)
	}

	past, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := s.SubmitWork(past, testWork, phiwork.Input{A: bn.One()}, SubmitOpts{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: %v, want context.DeadlineExceeded", err)
	}
	if _, err := s.DoWork(past, testWork, phiwork.Input{A: bn.One()}); err == nil {
		t.Fatal("Do with expired ctx succeeded")
	}

	// An explicit SLO deadline in the past, on a live context: the typed
	// sentinel, counted as an expired lane.
	_, err = s.SubmitWork(context.Background(), testWork, phiwork.Input{A: bn.One()},
		SubmitOpts{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("past deadline: %v, want ErrDeadlineExceeded", err)
	}

	st := s.Stats()
	if st.Submitted != 0 || st.Batches != 0 {
		t.Fatalf("dead-on-arrival work entered the server: %+v", st)
	}
	if st.ExpiredLanes != 1 {
		t.Fatalf("ExpiredLanes = %d, want 1", st.ExpiredLanes)
	}
}

// TestCanceledLanesDroppedAtSeal is the seal-time checkpoint regression: a
// request whose context is canceled after admission but before its batch
// seals resolves with ErrCanceled, is counted, and never reaches the pool
// (no batch executes when every lane is dead).
func TestCanceledLanesDroppedAtSeal(t *testing.T) {
	s, err := New(Config{Workers: 1, FillDeadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	const n = 3
	chs := make([]<-chan Result, n)
	for i := range chs {
		ch, err := s.SubmitWork(ctx, testWork, phiwork.Input{A: bn.One()}, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		chs[i] = ch
	}
	cancel() // all three lanes die inside the fill window
	for i, ch := range chs {
		res := <-ch
		if !errors.Is(res.Err, ErrCanceled) {
			t.Fatalf("lane %d: %v, want ErrCanceled", i, res.Err)
		}
	}
	st := s.Stats()
	if st.CanceledLanes != n {
		t.Fatalf("CanceledLanes = %d, want %d", st.CanceledLanes, n)
	}
	if st.Batches != 0 {
		t.Fatalf("a fully-dead batch executed: %+v", st)
	}
	if st.Failed != n {
		t.Fatalf("Failed = %d, want %d", st.Failed, n)
	}
}

// TestOverflowCapSheds: once the dispatch queue and the overflow list
// behind it are both full, further sealed batches are shed at enqueue with
// ErrOverloaded instead of growing the overflow without bound.
func TestOverflowCapSheds(t *testing.T) {
	stalls := make([]faultsim.PassOutcome, 16)
	for i := range stalls {
		stalls[i] = faultsim.PassStall
	}
	s, err := New(Config{
		Workers:      1,
		QueueDepth:   2,
		OverflowCap:  1,
		FillDeadline: 25 * time.Millisecond,
		Resilience: Resilience{
			// ExecTimeout stays 0: the stalled worker parks until Close,
			// keeping its batch pinned so the queue stays saturated.
			BreakerThreshold: 2, // never trip; degraded mode would bypass batching
			Faults:           &faultsim.Config{Seed: 1, Script: stalls},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())

	submitN := func(n int) []<-chan Result {
		t.Helper()
		out := make([]<-chan Result, n)
		for i := range out {
			ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: bn.One()}, SubmitOpts{})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			out[i] = ch
		}
		return out
	}
	waitFor := func(what string, cond func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(s.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats: %+v", what, s.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Batch 1 stalls the lone worker; batches 2 and 3 fill the queue;
	// batch 4 parks on the overflow list, reaching the cap of 1.
	live := submitN(BatchSize)
	waitFor("worker stall", func(st Stats) bool { return st.StalledPasses >= 1 })
	live = append(live, submitN(3*BatchSize)...)
	waitFor("overflow parked", func(st Stats) bool { return st.OverflowBatches >= 1 })

	// Batch 5 finds queue and overflow both full: its lanes shed.
	shedChs := submitN(BatchSize)
	for i, ch := range shedChs {
		if res := <-ch; !errors.Is(res.Err, ErrOverloaded) {
			t.Fatalf("shed lane %d: %v, want ErrOverloaded", i, res.Err)
		}
	}

	// Close releases the parked worker; the four admitted batches drain.
	s.Close()
	for i, ch := range live {
		if res := <-ch; res.Err != nil || !res.M.Equal(bn.One()) {
			t.Fatalf("admitted lane %d: %+v", i, res)
		}
	}
	st := s.Stats()
	if st.OverflowDropped != BatchSize {
		t.Fatalf("OverflowDropped = %d, want %d", st.OverflowDropped, BatchSize)
	}
	if st.Completed != int64(len(live)) || st.Failed != BatchSize {
		t.Fatalf("drain accounting wrong: %+v", st)
	}
}

// TestEstimatedDelayMeasuredWait pins the door estimate's measured term:
// a cold server still returns the fill deadline; a long measured wait
// raises the estimate above the queue model; and the measured term
// expires once its last observation is older than the wait it measured,
// leaving the model.
func TestEstimatedDelayMeasuredWait(t *testing.T) {
	const fill = 2 * time.Millisecond
	s, err := New(Config{Workers: 2, FillDeadline: fill})
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want time.Duration) bool {
		d := got - want
		return d > -time.Microsecond && d < time.Microsecond
	}
	now := time.Now()
	if got := s.estimatedDelayAt(now); got != fill {
		t.Fatalf("cold server estimate %v, want the fill deadline %v", got, fill)
	}
	// A wait observed at a pass start does not warm the server: only a
	// completed pass does.
	s.observeWait(500*time.Millisecond, now)
	if got := s.estimatedDelayAt(now); got != fill {
		t.Fatalf("estimate %v before any pass completed, want the fill deadline %v", got, fill)
	}

	// Empty queues and a 10 ms pass: the model says fill + one pass.
	s.observePass(10 * time.Millisecond)
	model := fill + 10*time.Millisecond
	if got := s.estimatedDelayAt(now.Add(100 * time.Millisecond)); !near(got, 510*time.Millisecond) {
		t.Fatalf("estimate %v with a fresh 500ms measured wait, want wait + pass = 510ms (model %v)", got, model)
	}
	if got := s.estimatedDelayAt(now.Add(501 * time.Millisecond)); !near(got, model) {
		t.Fatalf("estimate %v once the 500ms wait is 501ms old, want the model %v", got, model)
	}
}
