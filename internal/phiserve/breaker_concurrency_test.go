package phiserve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/phiwork"
)

// TestBreakerSingleProbeUnderConcurrency: when the cooldown elapses and
// many workers ask at once, exactly one is admitted as the half-open
// probe; everyone else is turned away until the probe's outcome lands.
func TestBreakerSingleProbeUnderConcurrency(t *testing.T) {
	b, clk := testBreaker(8, 0.5, 2, time.Second)
	b.record(true, false)
	b.record(true, false) // trips
	clk.advance(time.Second)

	const callers = 64
	var oks, probes atomic.Int64
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			ok, probe := b.allowVector()
			if ok {
				oks.Add(1)
			}
			if probe {
				probes.Add(1)
			}
			if probe && !ok {
				t.Error("probe admission without ok")
			}
		}()
	}
	start.Done()
	done.Wait()
	if oks.Load() != 1 || probes.Load() != 1 {
		t.Fatalf("concurrent askers got ok=%d probe=%d, want exactly one probe",
			oks.Load(), probes.Load())
	}
	// The probe's clean outcome closes the breaker for everyone.
	b.record(false, true)
	if !b.healthy() {
		t.Fatal("clean probe did not close the breaker")
	}
	if ok, probe := b.allowVector(); !ok || probe {
		t.Fatalf("closed breaker after recovery: ok=%v probe=%v", ok, probe)
	}
}

// TestHalfOpenProbeConcurrentSubmits drives the full server through a
// trip/half-open/recover cycle under concurrent submitters: a scripted
// burst of kernel failures opens the breaker, traffic keeps arriving
// while it is open and probing, and every request must resolve exactly
// once — served by the probe-recovered vector path or the scalar
// fallback, never lost, never double-answered.
func TestHalfOpenProbeConcurrentSubmits(t *testing.T) {
	const n = 160
	nc := 16
	cs, want, _ := perOpAnswers(t, testKey, nc, 900)

	script := []faultsim.PassOutcome{
		faultsim.PassKernelFail, faultsim.PassKernelFail,
		faultsim.PassKernelFail, faultsim.PassKernelFail,
	}
	s, err := New(Config{
		Workers:      2,
		FillDeadline: 2 * time.Millisecond,
		QueueDepth:   4,
		Resilience: Resilience{
			MaxRetries:        -1, // first failure degrades: trips fast
			BreakerWindow:     8,
			BreakerThreshold:  0.5,
			BreakerMinSamples: 2,
			BreakerCooldown:   5 * time.Millisecond,
			Faults:            &faultsim.Config{Seed: 5, Script: script},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())

	// Concurrent submitters racing the breaker's state machine: some hit
	// the closed breaker, some the open window (scalar fallback), some the
	// half-open probe admission.
	var wg sync.WaitGroup
	var wrong, failed atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[i%nc]}, SubmitOpts{})
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				res := <-ch
				if res.Err != nil {
					failed.Add(1)
					continue
				}
				if !res.M.Equal(want[i%nc]) {
					wrong.Add(1)
				}
				// A second receive must never produce a value: the channel
				// got exactly one resolve.
				select {
				case extra, ok := <-ch:
					if ok {
						t.Errorf("request %d resolved twice: %+v", i, extra)
					}
				default:
				}
				time.Sleep(200 * time.Microsecond) // keep traffic flowing across the cooldown
			}
		}(g)
	}
	wg.Wait()

	// Keep trickling traffic until the probes burn through the scripted
	// failures and the breaker closes (each failed probe costs one cooldown,
	// so this takes a handful of milliseconds).
	extra := 0
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().BreakerState != "closed" && time.Now().Before(deadline) {
		ch, err := s.SubmitWork(context.Background(), testWork, phiwork.Input{A: cs[extra%nc]}, SubmitOpts{})
		if err != nil {
			t.Fatalf("recovery submit: %v", err)
		}
		if res := <-ch; res.Err == nil && !res.M.Equal(want[extra%nc]) {
			wrong.Add(1)
		}
		extra++
		time.Sleep(time.Millisecond)
	}
	s.Close()

	if wrong.Load() != 0 {
		t.Fatalf("%d corrupted plaintexts escaped", wrong.Load())
	}
	if failed.Load() != 0 {
		t.Fatalf("%d requests failed; kernel failures must degrade, not fail", failed.Load())
	}
	st := s.Stats()
	total := int64(n + extra)
	if st.Submitted != total || st.Completed+st.Failed != total {
		t.Fatalf("resolution accounting off (want %d resolved): %+v", total, st)
	}
	if st.BreakerTrips == 0 {
		t.Fatalf("scripted kernel failures never tripped the breaker: %+v", st)
	}
	if st.FallbackOps == 0 {
		t.Fatalf("open breaker never sent traffic to the fallback: %+v", st)
	}
	if st.BreakerState != "closed" {
		t.Fatalf("breaker did not recover after the script drained: %+v", st)
	}
	t.Logf("trips=%d fallback=%d batches=%d kernelFaults=%d",
		st.BreakerTrips, st.FallbackOps, st.Batches, st.KernelFaults)
}
