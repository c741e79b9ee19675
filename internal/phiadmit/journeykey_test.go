package phiadmit

import (
	"context"
	"testing"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/phifleet"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phitrace"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/telemetry"
)

// TestOneJourneyKeyPerWorkload: a workload's journeys carry one key,
// w.Tag(), whichever layer begins them — the door, the fleet router or a
// bare server — and a request stolen to a sibling card runs in a pass
// slice on the adopting card that names the same key. A per-card label
// would split one workload's records over as many keys as cards.
func TestOneJourneyKeyPerWorkload(t *testing.T) {
	ctx := context.Background()
	in := phiwork.Input{A: bn.One()}
	var works []phiwork.Workload
	for i := 0; i < 8; i++ {
		works = append(works, phiwork.RSAPrivateFor(mustKey(t, int64(300+i))))
	}
	tag := works[0].Tag() // every 512-bit rsa-priv workload shares it
	serve := func(who string, do func(w phiwork.Workload) (phiserve.Result, error)) {
		t.Helper()
		for _, w := range works {
			res, err := do(w)
			if err != nil || res.Err != nil || !res.M.Equal(bn.One()) {
				t.Fatalf("%s: %v / %+v", who, err, res)
			}
		}
	}

	// A bare server begins the journeys itself.
	srvRec := phitrace.New(phitrace.Config{SampleN: 1})
	s, err := phiserve.New(phiserve.Config{Workers: 1, FillDeadline: time.Millisecond, Journeys: srvRec})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(ctx)
	serve("server", func(w phiwork.Workload) (phiserve.Result, error) { return s.DoWork(ctx, w, in) })
	s.Close()
	for _, j := range srvRec.Kept(0) {
		if v := j.View(); v.Key != tag {
			t.Fatalf("server-begun journey %d has key %q, want %q", v.ID, v.Key, tag)
		}
	}

	// A two-card fleet whose card 0 fails every pass: its lanes are stolen
	// by card 1. The router begins one journey per workload, the door
	// another.
	tel := telemetry.NewWithTrace(0)
	rec := phitrace.New(phitrace.Config{SampleN: 1, Telemetry: tel})
	fails := make([]faultsim.PassOutcome, 64)
	for i := range fails {
		fails[i] = faultsim.PassKernelFail
	}
	f, err := phifleet.New(phifleet.Config{
		Cards:     2,
		Telemetry: tel,
		Journeys:  rec,
		Card: phiserve.Config{
			Workers:      1,
			FillDeadline: time.Millisecond,
			// Keep both breakers closed: isolate the steal path.
			Resilience: phiserve.Resilience{BreakerThreshold: 2},
		},
		CardFaults: []*faultsim.Config{{Seed: 1, Script: fails}, nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(ctx)
	door := New(f, Config{SLO: time.Minute, Journeys: rec})
	serve("fleet", func(w phiwork.Workload) (phiserve.Result, error) { return f.DoWork(ctx, w, in) })
	serve("door", func(w phiwork.Workload) (phiserve.Result, error) { return door.DoWork(ctx, "t", w, in) })
	f.Close()

	begun := map[string]int{}
	adopters := map[int]bool{}
	for _, j := range rec.Kept(0) {
		v := j.View()
		if v.Key != tag {
			t.Fatalf("journey %d has key %q, want %q", v.ID, v.Key, tag)
		}
		by := "fleet"
		for _, e := range v.Events {
			switch e.Kind {
			case "door":
				by = "door"
			case "adopt":
				adopters[e.Card] = true
			}
		}
		begun[by]++
	}
	if begun["door"] != len(works) || begun["fleet"] != len(works) {
		t.Fatalf("journeys begun by layer = %v, want %d each from door and fleet", begun, len(works))
	}
	if !adopters[1] {
		t.Fatal("no request was stolen to card 1; the steal path was not exercised")
	}
	adoptedPasses := 0
	for _, e := range tel.Tracer.Events() {
		if e.Ph != "X" || e.Name != "pass" {
			continue
		}
		if e.Args["key"] != tag {
			t.Fatalf("pass slice on track %d names key %v, want %q", e.Tid, e.Args["key"], tag)
		}
		if e.Tid > 1<<20 && e.Tid < 2<<20 {
			adoptedPasses++
		}
	}
	if adoptedPasses == 0 {
		t.Fatal("no pass slice on the adopting card's worker tracks")
	}
}
