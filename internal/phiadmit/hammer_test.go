package phiadmit

import (
	"context"
	"errors"
	mrand "math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/phifleet"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
)

// TestOverloadHammer is the `make overload` CI gate: a race-enabled
// multi-tenant soak that drives a controller-fronted fleet well past
// capacity with faults active and a tight SLO, then closes the fleet in
// the middle of the shedding. The invariants: every request the door
// admits resolves exactly once (correct plaintext or a shed/cancel
// sentinel), no plaintext is ever wrong, and the door actually sheds —
// the overload must be real. Gated behind PHIOPENSSL_OVERLOAD=1 because
// it soaks for a couple of seconds.
func TestOverloadHammer(t *testing.T) {
	if os.Getenv("PHIOPENSSL_OVERLOAD") == "" {
		t.Skip("set PHIOPENSSL_OVERLOAD=1 to run the overload hammer")
	}
	const nk = 6
	ref := baseline.NewOpenSSL()
	rng := mrand.New(mrand.NewSource(42))
	keys := make([]*rsakit.PrivateKey, nk)
	cs := make([]bn.Nat, nk)
	want := make([]bn.Nat, nk)
	for i := range keys {
		k, err := rsakit.GenerateKey(mrand.New(mrand.NewSource(int64(2000+i))), 512)
		if err != nil {
			t.Fatal(err)
		}
		c, err := bn.RandomRange(rng, bn.One(), k.N)
		if err != nil {
			t.Fatal(err)
		}
		m, err := rsakit.PrivateOp(ref, k, c, rsakit.DefaultPrivateOpts())
		if err != nil {
			t.Fatal(err)
		}
		keys[i], cs[i], want[i] = k, c, m
	}

	f, err := phifleet.New(phifleet.Config{
		Cards:       2,
		Replicas:    2,
		RetryBudget: phiserve.NewRetryBudget(0.1, 64),
		Card: phiserve.Config{
			Workers:      2,
			FillDeadline: time.Millisecond,
			QueueDepth:   2,
			OverflowCap:  4,
			Resilience: phiserve.Resilience{
				MaxRetries:        2,
				ExecTimeout:       2 * time.Second,
				BreakerWindow:     16,
				BreakerMinSamples: 4,
				BreakerThreshold:  0.5,
				BreakerCooldown:   20 * time.Millisecond,
				Faults: &faultsim.Config{
					Seed:           11,
					KernelFailRate: 0.05,
				},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())

	ctrl := New(f, Config{
		SLO:      100 * time.Millisecond,
		Capacity: 2000,
		Tenants: []Tenant{
			{ID: "gold", Weight: 10},
			{ID: "silver", Weight: 3},
			{ID: "bronze", Weight: 1},
		},
	})

	tenants := []string{"gold", "gold", "silver", "bronze"}
	// Closed-loop submitters: enough that full batches queue and the door's
	// estimate crosses the SLO budget. Partial passes on the direct backend
	// cost only their live lanes, so a dozen no longer overload the fleet.
	const submitters = 96
	var accepted, resolved, wrong, shed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tn := tenants[g%len(tenants)]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (g*31 + i) % nk
				ch, err := ctrl.SubmitWork(context.Background(), tn, phiwork.RSAPrivateFor(keys[k]), phiwork.Input{A: cs[k]})
				if err != nil {
					switch {
					case errors.Is(err, ErrShedOverload), errors.Is(err, ErrShedTenant):
						shed.Add(1)
						continue
					case errors.Is(err, phiserve.ErrClosed),
						errors.Is(err, phiserve.ErrCanceled),
						errors.Is(err, phiserve.ErrDeadlineExceeded),
						errors.Is(err, phiserve.ErrOverloaded):
						// The fleet door refused; nothing entered.
						continue
					default:
						t.Errorf("submit: %v", err)
						return
					}
				}
				accepted.Add(1)
				res := <-ch
				switch {
				case res.Err == nil:
					if !res.M.Equal(want[k]) {
						wrong.Add(1)
					}
					resolved.Add(1)
				case errors.Is(res.Err, phiserve.ErrCanceled),
					errors.Is(res.Err, phiserve.ErrDeadlineExceeded),
					errors.Is(res.Err, phiserve.ErrOverloaded):
					resolved.Add(1)
				default:
					t.Errorf("unexpected result error: %v", res.Err)
					return
				}
			}
		}(g)
	}
	// Let the overload develop, then close the fleet mid-shed while the
	// submitters are still running: admitted in-flight work must still
	// resolve exactly once through the drain.
	time.Sleep(1500 * time.Millisecond)
	f.Close()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	if wrong.Load() != 0 {
		t.Fatalf("%d wrong plaintexts under overload", wrong.Load())
	}
	if accepted.Load() == 0 {
		t.Fatal("hammer admitted nothing")
	}
	if shed.Load() == 0 {
		t.Fatal("hammer shed nothing: the load was not an overload")
	}
	if resolved.Load() != accepted.Load() {
		t.Fatalf("accepted %d, resolved %d: exactly-once violated", accepted.Load(), resolved.Load())
	}
	st := f.Stats()
	if got := st.Fleet.Completed + st.Fleet.Failed; got != accepted.Load() {
		t.Fatalf("fleet resolved %d of %d accepted", got, accepted.Load())
	}
	ast := ctrl.Stats()
	t.Logf("hammer: accepted=%d shed=%d brownouts=%d expired=%d canceled=%d overflowDropped=%d budgetDenied=%d",
		accepted.Load(), shed.Load(), ast.BrownoutEnters,
		st.Fleet.ExpiredLanes, st.Fleet.CanceledLanes,
		st.Fleet.OverflowDropped, st.Fleet.RetryBudgetDenied)
}
