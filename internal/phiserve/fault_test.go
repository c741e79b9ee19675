package phiserve

import (
	"context"
	"os"
	"testing"
	"time"

	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
	"phiopenssl/internal/vpu"
)

// countingCorruptor counts injection points without corrupting anything —
// used to measure how many corruptible instructions one kernel pass
// executes, so per-pass fault rates convert exactly to per-instruction
// rates.
type countingCorruptor struct{ n int64 }

func (c *countingCorruptor) CorruptVec(*vpu.Vec) { c.n++ }

// instrPerVerifiedPass measures the corruptible-instruction count of one
// full verified batch pass (CRT kernel + re-encryption check) for key on
// the given backend. The count differs by orders of magnitude between
// backends (sim corrupts per vector instruction, direct per kernel phase
// boundary), so rate conversions must measure on the backend the server
// will actually run.
func instrPerVerifiedPass(t *testing.T, key *rsakit.PrivateKey, kind vpu.BackendKind) int64 {
	t.Helper()
	be := vpu.NewBackend(kind)
	ctr := &countingCorruptor{}
	be.AttachFaults(ctr)
	cs, _, _ := perOpAnswers(t, key, BatchSize, 900)
	if _, _, err := rsakit.PrivateOpBatchVerifiedN(be, key, cs); err != nil {
		t.Fatal(err)
	}
	return ctr.n
}

// TestInjectedBitFlipsNeverEscape: with random lane bit-flips injected
// into every worker's vector unit, every released plaintext must still be
// correct — faulted lanes are caught by the re-encryption check and healed
// by retry or fallback. The breaker is disabled here to exercise the
// retry path in isolation.
func TestInjectedBitFlipsNeverEscape(t *testing.T) {
	const n = 192
	nc := 32
	cs, want, _ := perOpAnswers(t, testKey, nc, 200)

	// Target ~3 expected lane flips per pass, converted to the
	// per-instruction rate of whichever backend the server resolves to
	// (direct exposes far fewer corruption points than sim, so a fixed
	// per-instruction rate would not port across backends).
	kind := Config{}.withDefaults().Backend
	instr := instrPerVerifiedPass(t, testKey, kind)
	rate := faultsim.PerInstrRate(0.2, uint64(instr))
	t.Logf("backend %s: %d corruptible instructions/pass, flip rate %.3g", kind, instr, rate)

	s, err := New(Config{
		Workers:      4,
		FillDeadline: 200 * time.Millisecond,
		Resilience: Resilience{
			BreakerThreshold: 2, // never trips: isolate retry/degrade behaviour
			Faults: &faultsim.Config{
				Seed:         7,
				LaneFlipRate: rate,
			},
		},
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
			t.Fatalf("request %d: CORRUPTED PLAINTEXT ESCAPED (attempts=%d fallback=%v)",
				i, res.Attempts, res.Fallback)
		}
	}
	s.Close()

	st := s.Stats()
	if st.Completed != n || st.Failed != 0 {
		t.Fatalf("stats %+v after %d requests", st, n)
	}
	if st.FaultsDetected == 0 {
		t.Fatalf("flip rate %.3g injected no detected faults over %d batches — injector not wired?", rate, st.Batches)
	}
	if st.Retries == 0 && st.FallbackOps == 0 {
		t.Fatalf("faults detected (%d) but nothing retried or fell back: %+v", st.FaultsDetected, st)
	}
	t.Logf("faults=%d retries=%d fallback=%d batches=%d",
		st.FaultsDetected, st.Retries, st.FallbackOps, st.Batches)
}

// TestKernelFailScriptRetriesThenFallsBack: a scripted double kernel
// failure must burn the retry budget and degrade the whole batch to the
// scalar path, with correct answers and accurate counters.
func TestKernelFailScriptRetriesThenFallsBack(t *testing.T) {
	cs, want, _ := perOpAnswers(t, testKey, BatchSize, 201)
	s, err := New(Config{
		Workers:      1,
		FillDeadline: time.Second,
		Resilience: Resilience{
			MaxRetries:       1,
			BreakerThreshold: 2,
			Faults: &faultsim.Config{
				Seed:   3,
				Script: []faultsim.PassOutcome{faultsim.PassKernelFail, faultsim.PassKernelFail},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	resps := make([]<-chan Result, BatchSize)
	for i := range resps {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[i]}, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = ch
	}
	for i, ch := range resps {
		res := <-ch
		if res.Err != nil || !res.M.Equal(want[i]) {
			t.Fatalf("request %d: %+v", i, res)
		}
		if !res.Fallback {
			t.Fatalf("request %d served by the vector path despite a scripted double kernel failure", i)
		}
		if res.Attempts != 2 {
			t.Fatalf("request %d: attempts=%d, want 2 (two failed passes)", i, res.Attempts)
		}
	}
	s.Close()
	st := s.Stats()
	if st.KernelFaults != 2 {
		t.Fatalf("KernelFaults=%d, want 2", st.KernelFaults)
	}
	if st.Retries != BatchSize {
		t.Fatalf("Retries=%d, want %d (one vector retry of the full batch)", st.Retries, BatchSize)
	}
	if st.FallbackOps != BatchSize {
		t.Fatalf("FallbackOps=%d, want %d", st.FallbackOps, BatchSize)
	}
	if st.Completed != BatchSize || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBreakerTripsAndRecoversEndToEnd: scripted kernel failures trip the
// breaker; while it is open, traffic is served correctly by the scalar
// fallback; after the cooldown a probe batch closes it again. Fully
// deterministic: one worker, scripted outcomes, explicit cooldown waits.
func TestBreakerTripsAndRecoversEndToEnd(t *testing.T) {
	nc := 48
	cs, want, _ := perOpAnswers(t, testKey, nc, 202)
	// Generous cooldown: the mid-open assertions below must comfortably fit
	// inside it even on a slow -race run.
	const cooldown = 1500 * time.Millisecond
	s, err := New(Config{
		Workers:      1,
		FillDeadline: 5 * time.Millisecond,
		Resilience: Resilience{
			MaxRetries:        -1, // first fault degrades; keeps the script accounting simple
			BreakerWindow:     8,
			BreakerThreshold:  0.5,
			BreakerMinSamples: 2,
			BreakerCooldown:   cooldown,
			Faults: &faultsim.Config{
				Seed:   5,
				Script: []faultsim.PassOutcome{faultsim.PassKernelFail, faultsim.PassKernelFail},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())

	collect := func(lo, hi int) {
		t.Helper()
		resps := make([]<-chan Result, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[i%nc]}, SubmitOpts{})
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			resps = append(resps, ch)
		}
		for j, ch := range resps {
			res := <-ch
			if res.Err != nil || !res.M.Equal(want[(lo+j)%nc]) {
				t.Fatalf("request %d: %+v", lo+j, res)
			}
		}
	}

	// Two batches, both scripted to kernel-fail: trips the breaker
	// (2 faulty passes >= threshold 0.5 with minSamples 2). Both are
	// healed by the scalar fallback.
	collect(0, BatchSize)
	collect(BatchSize, 2*BatchSize)
	st := s.Stats()
	if st.BreakerTrips < 1 {
		t.Fatalf("breaker never tripped: %+v", st)
	}
	if st.FallbackOps < 2*BatchSize {
		t.Fatalf("FallbackOps=%d, want >= %d (both batches healed scalar)", st.FallbackOps, 2*BatchSize)
	}

	// While open (inside cooldown), traffic still flows — straight to the
	// fallback without consuming a pass.
	batchesBefore := st.Batches
	collect(2*BatchSize, 2*BatchSize+8)
	st = s.Stats()
	if st.Batches != batchesBefore {
		t.Fatalf("open breaker still executed %d vector batches", st.Batches-batchesBefore)
	}

	// After the cooldown the script is exhausted (clean passes): the next
	// batch probes the vector path and closes the breaker.
	time.Sleep(cooldown + 20*time.Millisecond)
	collect(2*BatchSize+8, 3*BatchSize+8)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = s.Stats()
		if st.BreakerState == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()

	st = s.Stats()
	if st.BreakerState != "closed" || st.BreakerTrips != 1 {
		t.Fatalf("final breaker state %s trips %d, want closed/1", st.BreakerState, st.BreakerTrips)
	}
	if st.Failed != 0 || st.Completed != 3*BatchSize+8 {
		t.Fatalf("stats %+v", st)
	}
	if st.Batches == batchesBefore {
		t.Fatal("vector path never probed after recovery")
	}
}

// TestStallRespawnsWorkerAndResolvesExactlyOnce: a scripted stall wedges
// the only worker; the ExecTimeout monitor must respawn it, the batch must
// be healed (here: straight to scalar, MaxRetries -1), and every request
// must resolve exactly once even though the zombie execution later wakes
// during Close and walks the same request list.
func TestStallRespawnsWorkerAndResolvesExactlyOnce(t *testing.T) {
	cs, want, _ := perOpAnswers(t, testKey, BatchSize, 203)
	s, err := New(Config{
		Workers:      1,
		FillDeadline: time.Second,
		Resilience: Resilience{
			MaxRetries:       -1,
			ExecTimeout:      150 * time.Millisecond,
			BreakerThreshold: 2,
			Faults: &faultsim.Config{
				Seed:   9,
				Script: []faultsim.PassOutcome{faultsim.PassStall},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	resps := make([]<-chan Result, BatchSize)
	for i := range resps {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[i]}, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = ch
	}
	for i, ch := range resps {
		res := <-ch
		if res.Err != nil || !res.M.Equal(want[i]) {
			t.Fatalf("request %d: %+v", i, res)
		}
		if !res.Fallback {
			t.Fatalf("request %d not served by fallback after its worker stalled", i)
		}
	}
	s.Close() // releases the parked zombie; it must not double-resolve

	// Exactly-once: each response channel is buffered(1) and must now be
	// empty — a second resolve would have been visible here.
	for i, ch := range resps {
		select {
		case res := <-ch:
			t.Fatalf("request %d resolved twice; second result: %+v", i, res)
		default:
		}
	}
	st := s.Stats()
	if st.StalledPasses != 1 || st.TimedOutBatches != 1 || st.WorkerRespawns != 1 {
		t.Fatalf("stall accounting: stalls=%d timeouts=%d respawns=%d, want 1/1/1",
			st.StalledPasses, st.TimedOutBatches, st.WorkerRespawns)
	}
	if st.Completed != BatchSize || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFaultHammer is the acceptance hammer: 10k operations at a 1e-3
// per-lane per-pass fault rate; not one corrupted plaintext may escape and
// every request must resolve exactly once. ~minutes of host time, so it
// only runs when PHIOPENSSL_FAULTS=1 (make faults).
func TestFaultHammer(t *testing.T) {
	if os.Getenv("PHIOPENSSL_FAULTS") == "" {
		t.Skip("set PHIOPENSSL_FAULTS=1 (make faults) to run the 10k-op fault hammer")
	}
	const n = 10000
	nc := 64
	cs, want, _ := perOpAnswers(t, testKey, nc, 300)

	// Convert the per-lane per-pass target rate into the injector's
	// per-instruction rate using the measured instruction count of one
	// verified pass for this key size on the resolved backend.
	kind := Config{}.withDefaults().Backend
	instr := instrPerVerifiedPass(t, testKey, kind)
	rate := faultsim.PerInstrRate(1e-3, uint64(instr))
	t.Logf("backend %s: verified pass = %d corruptible instructions; per-instruction flip rate %.3g",
		kind, instr, rate)

	s, err := New(Config{
		Workers:      4,
		QueueDepth:   8,
		FillDeadline: 50 * time.Millisecond,
		Resilience: Resilience{
			Faults: &faultsim.Config{
				Seed:         13,
				LaneFlipRate: rate,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())

	type outcome struct {
		idx int
		res Result
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[i%nc]}, SubmitOpts{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		go func(i int, ch <-chan Result) { results <- outcome{i, <-ch} }(i, ch)
	}
	escaped := 0
	for k := 0; k < n; k++ {
		o := <-results
		if o.res.Err != nil {
			t.Fatalf("request %d failed: %v", o.idx, o.res.Err)
		}
		if !o.res.M.Equal(want[o.idx%nc]) {
			escaped++
			t.Errorf("request %d: CORRUPTED PLAINTEXT ESCAPED (attempts=%d fallback=%v)",
				o.idx, o.res.Attempts, o.res.Fallback)
		}
	}
	s.Close()
	st := s.Stats()
	t.Logf("hammer stats: %s", st.String())
	if escaped > 0 {
		t.Fatalf("%d corrupted plaintexts escaped the verifier", escaped)
	}
	if st.Completed != n || st.Failed != 0 {
		t.Fatalf("exactly-once violated: %+v", st)
	}
	if st.FaultsDetected == 0 {
		t.Fatalf("no faults detected across %d passes at rate %.3g — injector not wired?", st.Batches, rate)
	}
}
