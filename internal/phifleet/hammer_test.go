package phifleet

import (
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phiwork"
)

// TestFleetHammer is the `make fleet` CI gate: a race-enabled multi-card
// soak with lane faults, kernel failures, injected stalls, breaker trips
// and work stealing all active at once, concurrent submitters, and a
// mid-traffic Close. The invariant under all of it is the boring one that
// matters: every accepted request resolves exactly once, with the right
// plaintext or a cancellation sentinel, and the fleet's aggregate
// accounting balances. Gated behind PHIOPENSSL_FLEET=1 because it soaks
// for a couple of seconds.
func TestFleetHammer(t *testing.T) {
	if os.Getenv("PHIOPENSSL_FLEET") == "" {
		t.Skip("set PHIOPENSSL_FLEET=1 to run the multi-card hammer")
	}
	keys, cs, want := keySet(t, 8)
	f, err := New(Config{
		Cards:    4,
		Replicas: 2,
		Card: phiserve.Config{
			Workers:      2,
			FillDeadline: time.Millisecond,
			QueueDepth:   2, // small queue: exercise the overflow path too
			Resilience: phiserve.Resilience{
				MaxRetries:        2,
				ExecTimeout:       2 * time.Second,
				BreakerWindow:     16,
				BreakerMinSamples: 4,
				BreakerThreshold:  0.5,
				BreakerCooldown:   20 * time.Millisecond,
				Faults: &faultsim.Config{
					Seed:           11,
					KernelFailRate: 0.10,
					StallRate:      0.002,
				},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())

	const submitters = 12
	var accepted, resolved, wrong atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (g*31 + i) % len(keys)
				ch, err := f.SubmitWork(context.Background(), phiwork.RSAPrivateFor(keys[k]), phiwork.Input{A: cs[k]}, phiserve.SubmitOpts{})
				if err != nil {
					if errors.Is(err, phiserve.ErrClosed) {
						return
					}
					t.Errorf("submit: %v", err)
					return
				}
				accepted.Add(1)
				res := <-ch
				switch {
				case res.Err == nil:
					if !res.M.Equal(want[k]) {
						wrong.Add(1)
					}
					resolved.Add(1)
				case errors.Is(res.Err, phiserve.ErrCanceled):
					resolved.Add(1)
				default:
					t.Errorf("unexpected result error: %v", res.Err)
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Second)
	close(stop)
	f.Close()
	wg.Wait()

	if wrong.Load() != 0 {
		t.Fatalf("%d wrong plaintexts under fault load", wrong.Load())
	}
	if accepted.Load() == 0 {
		t.Fatal("hammer accepted nothing")
	}
	if resolved.Load() != accepted.Load() {
		t.Fatalf("accepted %d, resolved %d", accepted.Load(), resolved.Load())
	}
	st := f.Stats()
	if got := st.Fleet.Completed + st.Fleet.Failed; got != accepted.Load() {
		t.Fatalf("fleet resolved %d of %d accepted: exactly-once violated", got, accepted.Load())
	}
	if st.Fleet.StolenLanes != st.Fleet.AdoptedLanes {
		t.Fatalf("stolen %d != adopted %d", st.Fleet.StolenLanes, st.Fleet.AdoptedLanes)
	}
	t.Logf("hammer: accepted=%d kernelFaults=%d stalls=%d trips=%d stolen=%d failovers=%d hot=%d overflow=%d",
		accepted.Load(), st.Fleet.KernelFaults, st.Fleet.StalledPasses,
		st.Fleet.BreakerTrips, st.Fleet.StolenLanes, st.Failovers,
		st.HotRouted, st.Fleet.OverflowBatches)
}
