package phifleet

import (
	"context"
	"errors"
	mrand "math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
)

func mustKey(bits int, seed int64) *rsakit.PrivateKey {
	k, err := rsakit.GenerateKey(mrand.New(mrand.NewSource(seed)), bits)
	if err != nil {
		panic(err)
	}
	return k
}

// keySet generates n distinct keys with scalar reference answers for one
// ciphertext each.
func keySet(t *testing.T, n int) (keys []*rsakit.PrivateKey, cs, want []bn.Nat) {
	t.Helper()
	ref := baseline.NewOpenSSL()
	rng := mrand.New(mrand.NewSource(42))
	for i := 0; i < n; i++ {
		k := mustKey(512, int64(1000+i))
		c, err := bn.RandomRange(rng, bn.One(), k.N)
		if err != nil {
			t.Fatal(err)
		}
		m, err := rsakit.PrivateOp(ref, k, c, rsakit.DefaultPrivateOpts())
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		cs = append(cs, c)
		want = append(want, m)
	}
	return keys, cs, want
}

// TestFleetRoutesAndServes: traffic over several keys spreads across the
// cards by consistent hashing, every answer matches the scalar reference,
// and the shared registry carries distinct per-card series.
func TestFleetRoutesAndServes(t *testing.T) {
	keys, cs, want := keySet(t, 8)
	f, err := New(Config{
		Cards: 4,
		Card:  phiserve.Config{Workers: 2, FillDeadline: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())

	const n = 256
	resps := make([]<-chan phiserve.Result, n)
	for i := 0; i < n; i++ {
		ch, err := f.SubmitWork(context.Background(), phiwork.RSAPrivateFor(keys[i%len(keys)]), phiwork.Input{A: cs[i%len(keys)]}, phiserve.SubmitOpts{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		resps[i] = ch
	}
	for i, ch := range resps {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if !res.M.Equal(want[i%len(keys)]) {
			t.Fatalf("request %d: wrong plaintext", i)
		}
	}
	f.Close()

	st := f.Stats()
	if st.Fleet.Submitted != n || st.Fleet.Completed != n || st.Fleet.Failed != 0 {
		t.Fatalf("fleet accounting: %+v", st.Fleet)
	}
	served := 0
	for _, cst := range st.Cards {
		if cst.Completed > 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("only %d of %d cards served traffic; hashing is not spreading keys", served, len(st.Cards))
	}
	var sum int64
	for _, cst := range st.Cards {
		sum += cst.Completed
	}
	if sum != st.Fleet.Completed {
		t.Fatalf("per-card completions (%d) do not sum to the aggregate (%d)", sum, st.Fleet.Completed)
	}
	var sb strings.Builder
	if err := f.Telemetry().Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`phiserve_requests_completed_total{card="0"}`,
		`phiserve_requests_completed_total{card="3"}`,
		`phiserve_breaker_trips_total{card="1"}`,
		`phiserve_batches_run_total{card="2"}`,
	} {
		if !strings.Contains(sb.String(), series) {
			t.Fatalf("registry missing per-card series %s", series)
		}
	}
}

// TestFaultRetryStealsResolveExactlyOnce: lane faults on one card hand
// retry work to siblings through the redispatch hook; the moved requests
// must resolve exactly once (the finish CAS holds across cards) and still
// produce correct plaintexts.
func TestFaultRetryStealsResolveExactlyOnce(t *testing.T) {
	keys, cs, want := keySet(t, 4)
	f, err := New(Config{
		Cards: 2,
		Card: phiserve.Config{
			Workers:      2,
			FillDeadline: 2 * time.Millisecond,
			Resilience: phiserve.Resilience{
				MaxRetries:       3,
				BreakerThreshold: 2, // keep both breakers closed: isolate the steal path
				// Transient whole-pass failures fault every pending lane,
				// which is exactly what the fault-retry steal path moves.
				Faults: &faultsim.Config{Seed: 7, KernelFailRate: 0.25},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())

	const n = 256
	resps := make([]<-chan phiserve.Result, n)
	for i := 0; i < n; i++ {
		ch, err := f.SubmitWork(context.Background(), phiwork.RSAPrivateFor(keys[i%len(keys)]), phiwork.Input{A: cs[i%len(keys)]}, phiserve.SubmitOpts{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		resps[i] = ch
	}
	for i, ch := range resps {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if !res.M.Equal(want[i%len(keys)]) {
			t.Fatalf("request %d: wrong plaintext (attempts=%d fallback=%v)",
				i, res.Attempts, res.Fallback)
		}
	}
	f.Close()

	st := f.Stats()
	// Exactly-once: fleet-wide resolutions equal submissions, no double
	// counting from requests that crossed cards.
	if st.Fleet.Submitted != n || st.Fleet.Completed+st.Fleet.Failed != n || st.Fleet.Failed != 0 {
		t.Fatalf("fleet accounting: %+v", st.Fleet)
	}
	if st.Fleet.KernelFaults == 0 {
		t.Fatalf("fault injection never fired; the steal path was not exercised: %+v", st.Fleet)
	}
	if st.Redispatched == 0 || st.Fleet.AdoptedLanes == 0 {
		t.Fatalf("no cross-card redispatch happened (redispatched=%d adopted=%d stolen=%d)",
			st.Redispatched, st.Fleet.AdoptedLanes, st.Fleet.StolenLanes)
	}
	if st.Fleet.StolenLanes != st.Fleet.AdoptedLanes {
		t.Fatalf("stolen lanes (%d) != adopted lanes (%d): an op was moved but never landed",
			st.Fleet.StolenLanes, st.Fleet.AdoptedLanes)
	}
}

// TestBreakerFailoverRoutesAroundSickCard: with exactly one card's
// breaker tripped (per-card fault override), submissions for its keys
// fail over to the healthy sibling and still complete on the vector path.
func TestBreakerFailoverRoutesAroundSickCard(t *testing.T) {
	fails := make([]faultsim.PassOutcome, 64)
	for i := range fails {
		fails[i] = faultsim.PassKernelFail
	}
	f, err := New(Config{
		Cards: 2,
		Card: phiserve.Config{
			Workers:      2,
			FillDeadline: 2 * time.Millisecond,
			Resilience: phiserve.Resilience{
				MaxRetries:        1,
				BreakerWindow:     8,
				BreakerMinSamples: 2,
				BreakerThreshold:  0.5,
				BreakerCooldown:   time.Hour, // stay open for the whole test
			},
		},
		// Card 0 always kernel-fails; card 1 is clean.
		CardFaults: []*faultsim.Config{{Seed: 3, Script: fails}, nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a key homed on the sick card so failover is what serves it.
	var key *rsakit.PrivateKey
	for seed := int64(0); seed < 32; seed++ {
		k := mustKey(512, 2000+seed)
		if f.ring.order(phiwork.RSAPrivateFor(k))[0] == 0 {
			key = k
			break
		}
	}
	if key == nil {
		t.Fatal("no test key hashed to card 0")
	}
	ref := baseline.NewOpenSSL()
	c := bn.One().AddUint64(41)
	want, err := rsakit.PrivateOp(ref, key, c, rsakit.DefaultPrivateOpts())
	if err != nil {
		t.Fatal(err)
	}

	f.Start(context.Background())
	const n = 160
	for i := 0; i < n; i++ {
		res, err := f.DoWork(context.Background(), phiwork.RSAPrivateFor(key), phiwork.Input{A: c})
		if err != nil {
			t.Fatalf("do %d: %v", i, err)
		}
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if !res.M.Equal(want) {
			t.Fatalf("request %d: wrong plaintext", i)
		}
	}
	f.Close()

	st := f.Stats()
	if st.Cards[0].BreakerTrips == 0 {
		t.Fatalf("card 0 breaker never tripped: %+v", st.Cards[0])
	}
	if st.Failovers == 0 {
		t.Fatalf("no submissions failed over to the healthy card: %+v", st)
	}
	if st.Cards[1].Completed == 0 {
		t.Fatalf("healthy card served nothing: %+v", st.Cards[1])
	}
	if st.Fleet.Completed != n || st.Fleet.Failed != 0 {
		t.Fatalf("fleet accounting: %+v", st.Fleet)
	}
}

// TestConcurrentSubmitCloseFailover is the lifecycle race test: many
// goroutines submit across ≥2 cards — one of them fault-heavy so breaker
// trips and steals happen mid-stream — while Close races the traffic.
// Every accepted request must resolve exactly once; submissions that lose
// the race get ErrClosed/ErrCanceled and nothing else.
func TestConcurrentSubmitCloseFailover(t *testing.T) {
	keys, cs, _ := keySet(t, 6)
	fails := make([]faultsim.PassOutcome, 16)
	for i := range fails {
		fails[i] = faultsim.PassKernelFail
	}
	f, err := New(Config{
		Cards: 3,
		Card: phiserve.Config{
			Workers:      2,
			FillDeadline: time.Millisecond,
			Resilience: phiserve.Resilience{
				MaxRetries:        1,
				BreakerWindow:     8,
				BreakerMinSamples: 2,
				BreakerThreshold:  0.5,
			},
		},
		CardFaults: []*faultsim.Config{{Seed: 5, Script: fails}, nil, nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())

	const submitters = 8
	var accepted, resolved atomic.Int64
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
				k := (g + i) % len(keys)
				ch, err := f.SubmitWork(context.Background(), phiwork.RSAPrivateFor(keys[k]), phiwork.Input{A: cs[k]}, phiserve.SubmitOpts{})
				if err != nil {
					if errors.Is(err, phiserve.ErrClosed) {
						return
					}
					t.Errorf("submit: %v", err)
					return
				}
				accepted.Add(1)
				if res := <-ch; res.Err == nil || errors.Is(res.Err, phiserve.ErrCanceled) {
					resolved.Add(1)
				} else {
					t.Errorf("unexpected result error: %v", res.Err)
				}
			}
		}(g)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	f.Close()
	wg.Wait()

	if accepted.Load() == 0 {
		t.Fatal("no requests accepted before Close")
	}
	if resolved.Load() != accepted.Load() {
		t.Fatalf("accepted %d requests but %d resolved", accepted.Load(), resolved.Load())
	}
	st := f.Stats()
	if got := st.Fleet.Completed + st.Fleet.Failed; got != accepted.Load() {
		t.Fatalf("fleet resolved %d, accepted %d: a request resolved zero or two times",
			got, accepted.Load())
	}
}

// TestSubmitLifecycleErrors: the fleet front end mirrors phiserve's
// lifecycle sentinels.
func TestSubmitLifecycleErrors(t *testing.T) {
	keys, cs, _ := keySet(t, 1)
	f, err := New(Config{Cards: 2, Card: phiserve.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitWork(context.Background(), phiwork.RSAPrivateFor(keys[0]), phiwork.Input{A: cs[0]}, phiserve.SubmitOpts{}); !errors.Is(err, phiserve.ErrNotStarted) {
		t.Fatalf("submit before start: %v", err)
	}
	f.Start(context.Background())
	f.Close()
	if _, err := f.SubmitWork(context.Background(), phiwork.RSAPrivateFor(keys[0]), phiwork.Input{A: cs[0]}, phiserve.SubmitOpts{}); !errors.Is(err, phiserve.ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	f.Close() // idempotent
}

// TestHotKeySpreadsOverReplicas: a key arriving much faster than one
// batch per deadline spreads over its replica set instead of pinning one
// card.
func TestHotKeySpreadsOverReplicas(t *testing.T) {
	keys, cs, want := keySet(t, 1)
	f, err := New(Config{
		Cards:    4,
		Replicas: 2,
		Card:     phiserve.Config{Workers: 2, FillDeadline: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())
	const n = 24 * phiserve.BatchSize // a burst far beyond one batch per deadline
	resps := make([]<-chan phiserve.Result, n)
	for i := 0; i < n; i++ {
		ch, err := f.SubmitWork(context.Background(), phiwork.RSAPrivateFor(keys[0]), phiwork.Input{A: cs[0]}, phiserve.SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = ch
	}
	for i, ch := range resps {
		res := <-ch
		if res.Err != nil || !res.M.Equal(want[0]) {
			t.Fatalf("request %d: %+v", i, res)
		}
	}
	f.Close()
	st := f.Stats()
	if st.HotRouted == 0 {
		t.Fatalf("hot key never detected: %+v", st)
	}
	served := 0
	for _, cst := range st.Cards {
		if cst.Completed > 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("hot key stayed on %d card(s); replication did not spread it", served)
	}
}
