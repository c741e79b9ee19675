package phiserve

import (
	"context"
	"errors"
	mrand "math/rand"
	"testing"
	"time"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/core"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
)

// testKey is a deterministic 512-bit key (small sizes keep the host-time
// cost of the thousand-request test low; correctness is size-independent).
var testKey = mustKey(512, 7)

// testWork is testKey's canonical rsa-priv workload.
var testWork = phiwork.RSAPrivateFor(testKey)

func mustKey(bits int, seed int64) *rsakit.PrivateKey {
	k, err := rsakit.GenerateKey(mrand.New(mrand.NewSource(seed)), bits)
	if err != nil {
		panic(err)
	}
	return k
}

// perOpAnswers precomputes PrivateOp reference answers for nc distinct
// ciphertexts and returns (ciphertexts, answers, per-op Phi engine
// cycles). Every scheduler result is compared against these per-op
// answers.
func perOpAnswers(t *testing.T, key *rsakit.PrivateKey, nc int, seed int64) ([]bn.Nat, []bn.Nat, float64) {
	t.Helper()
	rng := mrand.New(mrand.NewSource(seed))
	ref := baseline.NewOpenSSL()
	cs := make([]bn.Nat, nc)
	want := make([]bn.Nat, nc)
	for i := range cs {
		c, err := bn.RandomRange(rng, bn.One(), key.N)
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
		m, err := rsakit.PrivateOp(ref, key, c, rsakit.DefaultPrivateOpts())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	var phi engine.Engine = core.New()
	if _, err := rsakit.PrivateOp(phi, key, cs[0], rsakit.DefaultPrivateOpts()); err != nil {
		t.Fatal(err)
	}
	return cs, want, phi.Cycles()
}

// TestThousandRequestsMatchPerOpAndBeatIt is the acceptance driver: ≥1000
// single requests stream through a 16-lane scheduler; every result must
// match the per-op rsakit.PrivateOp answer, and the amortized simulated
// cycles/op of the (mostly full) batches must undercut the per-op
// PhiOpenSSL engine, consistent with ablation A4.
func TestThousandRequestsMatchPerOpAndBeatIt(t *testing.T) {
	const n = 1008 // 63 full batches
	nc := 64
	cs, want, perOpCycles := perOpAnswers(t, testKey, nc, 100)

	s, err := New(Config{
		Workers:      4,
		QueueDepth:   8,
		FillDeadline: 200 * time.Millisecond, // far beyond the submit loop's pace
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())

	resps := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[i%nc]}, SubmitOpts{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		resps[i] = ch
	}
	for i, ch := range resps {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
		if !res.M.Equal(want[i%nc]) {
			t.Fatalf("request %d: scheduler answer differs from per-op PrivateOp", i)
		}
		if res.BatchFill < 1 || res.BatchFill > BatchSize || res.BatchCycles <= 0 || res.SimLatency <= 0 {
			t.Fatalf("request %d: implausible result metadata %+v", i, res)
		}
	}
	s.Close()

	st := s.Stats()
	if st.Submitted != n || st.Completed != n || st.Failed != 0 {
		t.Fatalf("stats %+v after %d clean requests", st, n)
	}
	if st.FillHist[BatchSize-1] < 60 {
		t.Fatalf("only %d of %d batches filled all lanes (hist %v)", st.FillHist[BatchSize-1], st.Batches, st.FillHist)
	}
	if st.CyclesPerOp <= 0 || st.CyclesPerOp >= perOpCycles {
		t.Fatalf("batched cycles/op %.0f not below per-op engine %.0f", st.CyclesPerOp, perOpCycles)
	}
	if st.SimThroughput <= 0 || st.MeanSimLatency <= 0 || st.MeanFill < 15 {
		t.Fatalf("implausible aggregate stats %+v", st)
	}
}

// TestFillDeadlineDispatchesPartialBatch: with fewer requests than lanes,
// the deadline must fire and serve a padded partial batch whose results
// still match the per-op answers.
func TestFillDeadlineDispatchesPartialBatch(t *testing.T) {
	cs, want, _ := perOpAnswers(t, testKey, 3, 101)
	s, err := New(Config{Workers: 2, FillDeadline: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	var resps []<-chan Result
	for _, c := range cs {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: c}, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, ch)
	}
	for i, ch := range resps {
		select {
		case res := <-ch:
			if res.Err != nil || !res.M.Equal(want[i]) {
				t.Fatalf("request %d: %+v", i, res)
			}
			if res.BatchFill != 3 {
				t.Fatalf("request %d served by fill-%d batch, want 3", i, res.BatchFill)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("request %d: deadline never dispatched", i)
		}
	}
	s.Close()
	st := s.Stats()
	if st.DeadlineFires < 1 || st.FillHist[2] != 1 {
		t.Fatalf("deadline accounting wrong: %+v", st)
	}
}

// TestCancelMidStreamDrainsInFlightFailsQueued is acceptance criterion
// (c): cancellation mid-stream completes in-flight batches and fails
// queued requests with the distinct ErrCanceled; every accepted request
// resolves exactly once.
func TestCancelMidStreamDrainsInFlightFailsQueued(t *testing.T) {
	const n = 320
	nc := 16
	cs, want, _ := perOpAnswers(t, testKey, nc, 102)

	s, err := New(Config{
		Workers:      1, // slow consumer: the queue backs up
		QueueDepth:   4,
		FillDeadline: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	type outcome struct {
		idx int
		res Result
	}
	results := make(chan outcome, n)
	accepted := 0
	canceledAtSubmit := 0
	for i := 0; i < n; i++ {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[i%nc]}, SubmitOpts{})
		if err != nil {
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("submit %d: %v", i, err)
			}
			canceledAtSubmit++
			continue
		}
		accepted++
		go func(i int, ch <-chan Result) { results <- outcome{i, <-ch} }(i, ch)
		if i == n/2 {
			cancel() // mid-stream
		}
	}
	if _, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[0]}, SubmitOpts{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("SubmitWork after cancel: %v", err)
	}
	s.Close()

	completed, failed := 0, 0
	for k := 0; k < accepted; k++ {
		select {
		case o := <-results:
			if o.res.Err != nil {
				if !errors.Is(o.res.Err, ErrCanceled) {
					t.Fatalf("request %d failed with %v, want ErrCanceled", o.idx, o.res.Err)
				}
				failed++
				continue
			}
			if !o.res.M.Equal(want[o.idx%nc]) {
				t.Fatalf("request %d: drained batch produced a wrong answer", o.idx)
			}
			completed++
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d of %d accepted requests resolved", k, accepted)
		}
	}
	if completed == 0 {
		t.Fatal("cancellation completed nothing; expected in-flight batches to drain")
	}
	if failed == 0 && canceledAtSubmit == 0 {
		t.Fatal("cancellation failed nothing; expected queued requests to be rejected")
	}
	st := s.Stats()
	if st.Completed != int64(completed) || st.Failed != int64(failed) {
		t.Fatalf("stats %+v disagree with observed %d completed / %d failed", st, completed, failed)
	}
}

// TestGracefulCloseFlushesOpenBatch: Close must dispatch an open partial
// batch immediately instead of waiting out a long fill deadline.
func TestGracefulCloseFlushesOpenBatch(t *testing.T) {
	cs, want, _ := perOpAnswers(t, testKey, 5, 103)
	s, err := New(Config{Workers: 2, FillDeadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	var resps []<-chan Result
	for _, c := range cs {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: c}, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, ch)
	}
	start := time.Now()
	s.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v; it must not wait for the fill deadline", elapsed)
	}
	for i, ch := range resps {
		res := <-ch
		if res.Err != nil || !res.M.Equal(want[i]) || res.BatchFill != 5 {
			t.Fatalf("request %d after graceful close: %+v", i, res)
		}
	}
	if _, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[0]}, SubmitOpts{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitWork after Close: %v", err)
	}
	s.Close() // idempotent
}

// TestTwoKeysNeverShareABatch: batches aggregate per key; interleaved
// traffic under two keys must produce per-key batches only.
func TestTwoKeysNeverShareABatch(t *testing.T) {
	keyB := mustKey(512, 8)
	csA, wantA, _ := perOpAnswers(t, testKey, 8, 104)
	rngB := mrand.New(mrand.NewSource(105))
	refB := baseline.NewOpenSSL()
	csB := make([]bn.Nat, 8)
	wantB := make([]bn.Nat, 8)
	for i := range csB {
		c, err := bn.RandomRange(rngB, bn.One(), keyB.N)
		if err != nil {
			t.Fatal(err)
		}
		csB[i] = c
		m, err := rsakit.PrivateOp(refB, keyB, c, rsakit.DefaultPrivateOpts())
		if err != nil {
			t.Fatal(err)
		}
		wantB[i] = m
	}

	s, err := New(Config{Workers: 2, FillDeadline: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	var respsA, respsB []<-chan Result
	for i := 0; i < 8; i++ {
		chA, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: csA[i]}, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		chB, err := s.SubmitWork(context.Background(), phiwork.RSAPrivateFor(keyB), phiwork.Input{A: csB[i]}, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		respsA = append(respsA, chA)
		respsB = append(respsB, chB)
	}
	for i := range respsA {
		if res := <-respsA[i]; res.Err != nil || !res.M.Equal(wantA[i]) {
			t.Fatalf("key A request %d: %+v", i, res)
		}
		if res := <-respsB[i]; res.Err != nil || !res.M.Equal(wantB[i]) {
			t.Fatalf("key B request %d: %+v", i, res)
		}
	}
	s.Close()
	st := s.Stats()
	if st.Batches < 2 {
		t.Fatalf("two keys x 8 requests produced %d batches; keys must not share lanes", st.Batches)
	}
	if st.FillHist[BatchSize-1] != 0 {
		t.Fatalf("a full 16-lane batch appeared across two 8-request keys: %v", st.FillHist)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: bn.One()}, SubmitOpts{}); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("SubmitWork before Start: %v", err)
	}
	if _, err := s.SubmitWork(context.Background(), nil, phiwork.Input{A: bn.One()}, SubmitOpts{}); err == nil {
		t.Fatal("nil key accepted")
	}
	if _, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: testKey.N}, SubmitOpts{}); err == nil {
		t.Fatal("out-of-range ciphertext accepted")
	}
	s.Start(context.Background())
	res, err := s.DoWork(context.Background(), testWork, phiwork.Input{A: bn.One()})
	if err != nil || res.Err != nil || !res.M.Equal(bn.One()) {
		t.Fatalf("Do(1^d mod n): %+v, %v", res, err)
	}
	s.Close()
}

func TestConfigDefaults(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.Machine.MaxThreads() != knc.Default().MaxThreads() || cfg.Workers < 1 ||
		cfg.FillDeadline <= 0 || cfg.QueueDepth < cfg.Workers {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if _, err := New(Config{Machine: knc.Machine{Name: "dead", Cores: 3}}); err == nil {
		t.Fatal("zero-thread machine accepted")
	}
}
