package phifleet

import (
	"context"
	"errors"
	"testing"
	"time"

	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phiwork"
)

// TestFleetRejectsDeadOnArrival: the fleet door fast-fails canceled
// contexts and already-passed deadlines before routing — no card ever
// sees the request.
func TestFleetRejectsDeadOnArrival(t *testing.T) {
	keys, cs, _ := keySet(t, 1)
	f, err := New(Config{
		Cards: 2,
		Card:  phiserve.Config{Workers: 1, FillDeadline: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())
	defer f.Close()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.SubmitWork(canceled, phiwork.RSAPrivateFor(keys[0]), phiwork.Input{A: cs[0]}, phiserve.SubmitOpts{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: %v, want context.Canceled", err)
	}

	_, err = f.SubmitWork(context.Background(), phiwork.RSAPrivateFor(keys[0]), phiwork.Input{A: cs[0]},
		phiserve.SubmitOpts{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, phiserve.ErrDeadlineExceeded) {
		t.Fatalf("past deadline: %v, want ErrDeadlineExceeded", err)
	}

	if st := f.Stats(); st.Fleet.Submitted != 0 {
		t.Fatalf("dead-on-arrival work reached a card: %+v", st.Fleet)
	}
}

// TestFleetSharedRetryBudget: Config.RetryBudget reaches every card, so
// the cap is global across the fleet (one bucket, not one per card).
func TestFleetSharedRetryBudget(t *testing.T) {
	budget := phiserve.NewRetryBudget(0.1, 8)
	f, err := New(Config{
		Cards:       3,
		RetryBudget: budget,
		Card:        phiserve.Config{Workers: 1, FillDeadline: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())
	defer f.Close()
	// Draining the shared bucket through one card's policy must deny the
	// others too.
	if !budget.Allow(8) {
		t.Fatal("full withdrawal denied")
	}
	for _, s := range f.cards {
		if s.Config().Resilience.Budget != budget {
			t.Fatal("card does not share the fleet retry budget")
		}
		if s.Config().Resilience.Budget.Allow(1) {
			t.Fatal("drained shared budget still allows retries on a card")
		}
	}
}
