package phiadmit

import (
	"context"
	"errors"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phitrace"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
	"phiopenssl/internal/vpu"
)

// fakeBackend is a Backend with a settable delay estimate and a scripted
// error, so controller decisions can be tested without a real server.
type fakeBackend struct {
	mu       sync.Mutex
	est      time.Duration
	err      error
	byTenant map[string]int
	lastOpts phiserve.SubmitOpts
}

func (b *fakeBackend) SubmitWork(_ context.Context, _ phiwork.Workload, _ phiwork.Input, opts phiserve.SubmitOpts) (<-chan phiserve.Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return nil, b.err
	}
	if b.byTenant == nil {
		b.byTenant = make(map[string]int)
	}
	b.byTenant[opts.Tenant]++
	b.lastOpts = opts
	ch := make(chan phiserve.Result, 1)
	ch <- phiserve.Result{M: bn.One()}
	return ch, nil
}

func (b *fakeBackend) EstimatedDelay() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.est
}

func (b *fakeBackend) setEst(d time.Duration) {
	b.mu.Lock()
	b.est = d
	b.mu.Unlock()
}

// stubWorkload is a minimal heavy-class workload for door-decision tests;
// the fake backend never executes it.
type stubWorkload struct{ kind phiwork.Kind }

func stubWL() *stubWorkload { return &stubWorkload{kind: phiwork.KindRSAPrivate} }

func (w *stubWorkload) Kind() phiwork.Kind           { return w.kind }
func (w *stubWorkload) Class() phiwork.Class         { return phiwork.ClassHeavy }
func (w *stubWorkload) Tag() string                  { return "stub" }
func (w *stubWorkload) RouteBytes() []byte           { return []byte(w.kind) }
func (w *stubWorkload) Bits() int                    { return 512 }
func (w *stubWorkload) Validate(phiwork.Input) error { return nil }
func (w *stubWorkload) ExecuteBatch(vpu.Backend, []phiwork.Input) ([]bn.Nat, []error, *phiwork.Breakdown, error) {
	return nil, nil, nil, errors.New("stub workload is not executable")
}
func (w *stubWorkload) ExecuteScalar(engine.Engine, phiwork.Input) (bn.Nat, error) {
	return bn.Nat{}, errors.New("stub workload is not executable")
}

// fakeClock is a manually-advanced clock for deterministic bucket refills.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestOverloadShedAndDeadlineAttachment: below the margin line requests
// are admitted carrying deadline now+SLO and the resolved tenant id; past
// it they shed with ErrShedOverload before touching the backend.
func TestOverloadShedAndDeadlineAttachment(t *testing.T) {
	be := &fakeBackend{}
	clk := newFakeClock()
	a := New(be, Config{SLO: 100 * time.Millisecond, Clock: clk.now})

	// est 0: admitted, with the deadline and the fallback tenant attached.
	res, err := a.DoWork(context.Background(), "", stubWL(), phiwork.Input{A: bn.One()})
	if err != nil || res.Err != nil {
		t.Fatalf("cold admit: %v / %v", err, res.Err)
	}
	if got, want := be.lastOpts.Deadline, clk.now().Add(100*time.Millisecond); !got.Equal(want) {
		t.Fatalf("deadline %v, want %v", got, want)
	}
	if be.lastOpts.Tenant != "_other" {
		t.Fatalf("tenant %q, want _other", be.lastOpts.Tenant)
	}

	// est 90ms > (1-0.2)*100ms: shed without a backend call.
	be.setEst(90 * time.Millisecond)
	if _, err := a.SubmitWork(context.Background(), "", stubWL(), phiwork.Input{A: bn.One()}); !errors.Is(err, ErrShedOverload) {
		t.Fatalf("overload submit: %v, want ErrShedOverload", err)
	}
	if n := be.byTenant["_other"]; n != 1 {
		t.Fatalf("backend saw %d submits, want 1 (shed must not reach it)", n)
	}
	st := a.Stats()
	if st.Admitted != 1 || st.Shed != 1 {
		t.Fatalf("stats admitted=%d shed=%d, want 1/1", st.Admitted, st.Shed)
	}
}

// TestBrownoutHysteresis: brownout enters at BrownoutEnter, holds through
// the hysteresis band, and exits only below BrownoutExit — no flapping.
func TestBrownoutHysteresis(t *testing.T) {
	be := &fakeBackend{}
	a := New(be, Config{SLO: 100 * time.Millisecond, Clock: newFakeClock().now})
	// Defaults: enter 50ms, exit 25ms, margin 0.2 (admit while est <= 80ms).
	step := func(est time.Duration) Stats {
		t.Helper()
		be.setEst(est)
		if _, err := a.SubmitWork(context.Background(), "", stubWL(), phiwork.Input{A: bn.One()}); err != nil {
			t.Fatalf("submit at est=%v: %v", est, err)
		}
		return a.Stats()
	}
	if st := step(40 * time.Millisecond); st.Brownout {
		t.Fatal("brownout below the enter threshold")
	}
	if st := step(60 * time.Millisecond); !st.Brownout || st.BrownoutEnters != 1 {
		t.Fatalf("no brownout at 60ms: %+v", st)
	}
	if st := step(30 * time.Millisecond); !st.Brownout || st.BrownoutEnters != 1 {
		t.Fatalf("brownout dropped inside the hysteresis band: %+v", st)
	}
	if st := step(20 * time.Millisecond); st.Brownout {
		t.Fatal("brownout held below the exit threshold")
	}
	if st := step(60 * time.Millisecond); !st.Brownout || st.BrownoutEnters != 2 {
		t.Fatalf("re-entry not counted: %+v", st)
	}
}

// TestBrownoutFairness10to1 is the weighted-fairness acceptance check: two
// tenants with 10:1 weights, each offering the same traffic at 2x the
// configured capacity during a brownout, end up admitted in a ratio within
// 15% of 10:1.
func TestBrownoutFairness10to1(t *testing.T) {
	be := &fakeBackend{}
	clk := newFakeClock()
	a := New(be, Config{
		SLO:      100 * time.Millisecond,
		Capacity: 1000,
		Tenants: []Tenant{
			{ID: "gold", Weight: 10},
			{ID: "bronze", Weight: 1},
		},
		Clock: clk.now,
	})
	// Inside the brownout band and below the margin line: every shed below
	// is a fair-queuing decision, not an overload one.
	be.setEst(60 * time.Millisecond)

	// 2 simulated seconds at 2x capacity, split evenly: each tenant offers
	// 1000/s against weighted shares of ~833/s and ~83/s.
	var gold, bronze int
	for i := 0; i < 2000; i++ {
		for _, tn := range []string{"gold", "bronze"} {
			_, err := a.SubmitWork(context.Background(), tn, stubWL(), phiwork.Input{A: bn.One()})
			switch {
			case err == nil:
				if tn == "gold" {
					gold++
				} else {
					bronze++
				}
			case errors.Is(err, ErrShedTenant):
			default:
				t.Fatalf("tenant %s: unexpected error %v", tn, err)
			}
		}
		clk.advance(time.Millisecond)
	}
	if bronze == 0 {
		t.Fatal("bronze fully starved")
	}
	ratio := float64(gold) / float64(bronze)
	if ratio < 10*0.85 || ratio > 10*1.15 {
		t.Fatalf("admitted gold=%d bronze=%d, ratio %.2f outside 10:1 ±15%%", gold, bronze, ratio)
	}
	st := a.Stats()
	if st.BrownoutEnters != 1 || st.Shed == 0 {
		t.Fatalf("expected one brownout with shedding: %+v", st)
	}
}

// TestTokenRefundOnBackendError: a token charged during brownout comes
// back when the backend refuses the request, so backend rejections do not
// drain the tenant's fair share.
func TestTokenRefundOnBackendError(t *testing.T) {
	boom := errors.New("backend down")
	be := &fakeBackend{err: boom}
	a := New(be, Config{
		SLO:      100 * time.Millisecond,
		Capacity: 10, // tiny: each tenant's bucket holds exactly 1 token
		Tenants:  []Tenant{{ID: "t"}},
		Clock:    newFakeClock().now,
	})
	be.setEst(60 * time.Millisecond) // brownout, below the margin line
	for i := 0; i < 3; i++ {
		// Without the refund the single token is gone after the first try
		// and later attempts would shed with ErrShedTenant instead.
		if _, err := a.SubmitWork(context.Background(), "t", stubWL(), phiwork.Input{A: bn.One()}); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: %v, want backend error", i, err)
		}
	}
	if st := a.Stats(); st.Admitted != 0 {
		t.Fatalf("admitted %d, want 0", st.Admitted)
	}
}

// mustKey builds a deterministic small test key.
func mustKey(t *testing.T, seed int64) *rsakit.PrivateKey {
	t.Helper()
	k, err := rsakit.GenerateKey(mrand.New(mrand.NewSource(seed)), 512)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestControllerOverRealServer: the controller in front of a real
// phiserve.Server admits a light request end to end and the result is
// correct; the admitted request carries its deadline into the server.
func TestControllerOverRealServer(t *testing.T) {
	key := mustKey(t, 7)
	s, err := phiserve.New(phiserve.Config{Workers: 2, FillDeadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	defer s.Close()
	a := New(s, Config{SLO: 5 * time.Second})
	res, err := a.DoWork(context.Background(), "acct", phiwork.RSAPrivateFor(key), phiwork.Input{A: bn.One()})
	if err != nil || res.Err != nil {
		t.Fatalf("admit+serve: %v / %v", err, res.Err)
	}
	if !res.M.Equal(bn.One()) {
		t.Fatalf("wrong plaintext: %v", res.M)
	}
	if st := s.Stats(); st.Completed != 1 {
		t.Fatalf("server stats: %+v", st)
	}
}

// stubBackend hands back one prebuilt channel, so SubmitWork's
// allocations over it are the door's own.
type stubBackend struct {
	ch  chan phiserve.Result
	est time.Duration
}

func (b *stubBackend) SubmitWork(context.Context, phiwork.Workload, phiwork.Input, phiserve.SubmitOpts) (<-chan phiserve.Result, error) {
	return b.ch, nil
}

func (b *stubBackend) EstimatedDelay() time.Duration { return b.est }

// TestSubmitWorkAllocs pins SubmitWork's allocations on every door path:
// none without journeys; with journeys, two per admission and four per
// shed.
func TestSubmitWorkAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		est      time.Duration
		capacity float64
		journeys bool
		want     float64
	}{
		{"admit", 0, 1e9, false, 0},
		{"admit-charged", 60 * time.Millisecond, 1e9, false, 0},
		{"shed-overload", 90 * time.Millisecond, 1e9, false, 0},
		{"shed-tenant", 60 * time.Millisecond, 1e-9, false, 0},
		{"admit-journeys", 0, 1e9, true, 2},
		{"admit-charged-journeys", 60 * time.Millisecond, 1e9, true, 2},
		{"shed-overload-journeys", 90 * time.Millisecond, 1e9, true, 4},
		{"shed-tenant-journeys", 60 * time.Millisecond, 1e-9, true, 4},
	} {
		cfg := Config{SLO: 100 * time.Millisecond, Capacity: tc.capacity,
			Tenants: []Tenant{{ID: "t", Weight: 2}}, Clock: newFakeClock().now}
		if tc.journeys {
			cfg.Journeys = phitrace.New(phitrace.Config{})
		}
		a := New(&stubBackend{ch: make(chan phiserve.Result, 1), est: tc.est}, cfg)
		w, in := stubWL(), phiwork.Input{A: bn.One()}
		got := testing.AllocsPerRun(100, func() { a.SubmitWork(context.Background(), "t", w, in) })
		if got > tc.want {
			t.Errorf("%s: %.0f allocations per SubmitWork, want <= %.0f", tc.name, got, tc.want)
		}
	}
}
