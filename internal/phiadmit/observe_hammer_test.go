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
	"phiopenssl/internal/phitrace"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
)

// TestObserveHammer is the `make observe` CI gate: the overload hammer
// with the journey recorder wired through every layer, run under -race.
// Every SubmitWork call must leave exactly one coherent journey: exactly one
// terminal event, monotone event timestamps, hop count within the fleet's
// steal budget, and the terminal outcome agreeing with what the submitter
// observed. Tail sampling must keep 100% of anomalous journeys and the
// accounting must balance. Gated behind PHIOPENSSL_OBSERVE=1 because it
// soaks for a couple of seconds.
func TestObserveHammer(t *testing.T) {
	if os.Getenv("PHIOPENSSL_OBSERVE") == "" {
		t.Skip("set PHIOPENSSL_OBSERVE=1 to run the observe hammer")
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

	var journeyMu sync.Mutex
	var journeys []*phitrace.Journey
	rec := phitrace.New(phitrace.Config{
		RingSize: 2048,
		SampleN:  16,
		OnResolve: func(j *phitrace.Journey) {
			journeyMu.Lock()
			journeys = append(journeys, j)
			journeyMu.Unlock()
		},
	})

	const maxHops = 3
	f, err := phifleet.New(phifleet.Config{
		Cards:       2,
		Replicas:    2,
		MaxHops:     maxHops,
		RetryBudget: phiserve.NewRetryBudget(0.1, 64),
		Journeys:    rec,
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
		Journeys: rec,
		Tenants: []Tenant{
			{ID: "gold", Weight: 10},
			{ID: "silver", Weight: 3},
			{ID: "bronze", Weight: 1},
		},
	})

	tenants := []string{"gold", "gold", "silver", "bronze"}
	// As in TestOverloadHammer: enough closed-loop submitters that the
	// load is a real overload, now that partial passes are cheap.
	const submitters = 96
	var submits, accepted, completedOK, resolved, wrong, shed atomic.Int64

	// Paced warmup at light load first: normal completions exercise the
	// 1-in-N sampling arm before the storm makes everything anomalous.
	for i := 0; i < 192; i++ {
		k := i % nk
		submits.Add(1)
		res, err := ctrl.DoWork(context.Background(), tenants[i%len(tenants)], phiwork.RSAPrivateFor(keys[k]), phiwork.Input{A: cs[k]})
		if err != nil {
			t.Fatalf("warmup submit %d: %v", i, err)
		}
		if res.Err != nil {
			t.Fatalf("warmup result %d: %v", i, res.Err)
		}
		if !res.M.Equal(want[k]) {
			wrong.Add(1)
		}
		accepted.Add(1)
		completedOK.Add(1)
		resolved.Add(1)
	}
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
				submits.Add(1)
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
					completedOK.Add(1)
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
	time.Sleep(1500 * time.Millisecond)
	f.Close()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	if wrong.Load() != 0 {
		t.Fatalf("%d wrong plaintexts under overload", wrong.Load())
	}
	if accepted.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("load was not an overload: accepted=%d shed=%d", accepted.Load(), shed.Load())
	}
	if resolved.Load() != accepted.Load() {
		t.Fatalf("accepted %d, resolved %d: exactly-once violated", accepted.Load(), resolved.Load())
	}

	// Journey coherence: one journey per SubmitWork call, each with exactly
	// one terminal event, monotone timestamps, and hops within budget.
	journeyMu.Lock()
	captured := append([]*phitrace.Journey(nil), journeys...)
	journeyMu.Unlock()
	if got, wantN := int64(len(captured)), submits.Load(); got != wantN {
		t.Fatalf("captured %d journeys for %d submits", got, wantN)
	}
	var jCompleted, jShed, jAnomalous int64
	for _, j := range captured {
		if n := j.Terminals(); n != 1 {
			t.Fatalf("journey %d has %d terminal events", j.ID(), n)
		}
		evs := j.Events()
		if len(evs) == 0 {
			t.Fatalf("journey %d has no events", j.ID())
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].At.Before(evs[i-1].At) {
				t.Fatalf("journey %d timestamps not monotone: %v then %v (%s after %s)",
					j.ID(), evs[i-1].At, evs[i].At, evs[i].Kind, evs[i-1].Kind)
			}
		}
		if last := evs[len(evs)-1]; len(last.Kind) < 4 || last.Kind[:4] != "end:" {
			t.Fatalf("journey %d last event %q is not the terminal", j.ID(), last.Kind)
		}
		if h := j.Hops(); h > maxHops {
			t.Fatalf("journey %d hopped %d times, budget %d", j.ID(), h, maxHops)
		}
		switch o := j.Outcome(); {
		case o == phitrace.OutcomeCompleted:
			jCompleted++
		case o.Shed():
			jShed++
		}
		if j.Anomaly() != "" {
			jAnomalous++
		}
	}
	if jCompleted != completedOK.Load() {
		t.Fatalf("%d journeys completed, submitters saw %d", jCompleted, completedOK.Load())
	}
	if jShed < shed.Load() {
		// Door sheds are a subset: overflow sheds resolve through the
		// response channel and also count as shed outcomes.
		t.Fatalf("%d shed journeys < %d door sheds", jShed, shed.Load())
	}

	// Tail-sampling accounting: every anomalous journey kept, the rest
	// 1-in-N, nothing lost.
	c := rec.Counts()
	if c.Resolved != int64(len(captured)) {
		t.Fatalf("recorder resolved %d, captured %d", c.Resolved, len(captured))
	}
	if c.TerminalDups != 0 {
		t.Fatalf("%d duplicate terminals", c.TerminalDups)
	}
	if c.KeptAnomalous+c.KeptSampled+c.Discarded != c.Resolved {
		t.Fatalf("sampling accounting does not balance: %+v", c)
	}
	if c.KeptAnomalous != jAnomalous {
		t.Fatalf("kept %d anomalous journeys of %d", c.KeptAnomalous, jAnomalous)
	}
	t.Logf("observe hammer: submits=%d accepted=%d shed=%d journeys=%d anomalous=%d sampled=%d discarded=%d incidents=%d",
		submits.Load(), accepted.Load(), shed.Load(), len(captured),
		c.KeptAnomalous, c.KeptSampled, c.Discarded, c.Incidents)
}
