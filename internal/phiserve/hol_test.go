package phiserve

import (
	"context"
	"testing"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
)

// TestDeadlineFiresWhileDispatchQueueSaturated is the head-of-line
// regression test: one key saturates the dispatch queue (a stalled worker
// holds one batch, two more fill the queue, a fourth overflows), and a
// partial batch of a *different* key must still dispatch on its fill
// deadline. Before the overflow-list fix the scheduler goroutine blocked
// inside pool.Submit on the fourth batch, so the key-B deadline flush sat
// unprocessed forever and this test times out.
func TestDeadlineFiresWhileDispatchQueueSaturated(t *testing.T) {
	keyB := mustKey(512, 8)
	stalls := make([]faultsim.PassOutcome, 16)
	for i := range stalls {
		stalls[i] = faultsim.PassStall
	}
	s, err := New(Config{
		Workers:      1,
		QueueDepth:   2,
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

	submitN := func(key *rsakit.PrivateKey, n int) []<-chan Result {
		t.Helper()
		out := make([]<-chan Result, n)
		for i := range out {
			ch, err := s.SubmitWork(context.Background(), phiwork.RSAPrivateFor(key), phiwork.Input{A: bn.One()}, SubmitOpts{})
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

	// Batch 1 reaches the worker, which stalls and parks holding it.
	respsA := submitN(testKey, BatchSize)
	waitFor("worker stall", func(st Stats) bool { return st.StalledPasses >= 1 })
	// Batches 2 and 3 fill the queue; batch 4 finds it full. The old code
	// blocks the scheduler right here.
	respsA = append(respsA, submitN(testKey, 3*BatchSize)...)
	waitFor("dispatch overflow", func(st Stats) bool { return st.OverflowBatches >= 1 })

	// A lone key-B request opens a partial batch; its deadline must fire
	// even though key A has the card wedged solid.
	respB := submitN(keyB, 1)[0]
	waitFor("key-B deadline fire", func(st Stats) bool { return st.DeadlineFires >= 1 })

	// Close releases the parked worker; everything drains via the scalar
	// path and every request still resolves exactly once.
	s.Close()
	for i, ch := range respsA {
		if res := <-ch; res.Err != nil {
			t.Fatalf("key-A request %d: %v", i, res.Err)
		}
	}
	if res := <-respB; res.Err != nil || !res.M.Equal(bn.One()) {
		t.Fatalf("key-B request: %+v", res)
	}
	st := s.Stats()
	if st.Completed != int64(len(respsA)+1) || st.Failed != 0 {
		t.Fatalf("drain accounting wrong: %+v", st)
	}
}
