package phitrace_test

// Experiment A10 drives a live Recorder on the virtual-time engine
// (internal/phisim). These tests pin that model.

import (
	mrand "math/rand"
	"testing"
	"time"

	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phisim"
	"phiopenssl/internal/phitrace"
)

// a10Model is the experiment configuration bench's A10 also uses: the A9
// machine shape spread over two cards, key k homed on card k mod 2.
func a10Model(rc phitrace.Config) phisim.Config {
	m := phisim.Config{
		Machine:      knc.Default(),
		Cards:        2,
		Workers:      8,
		Homes:        phisim.ModHomes(2, 4),
		FillDeadline: 4 * time.Millisecond,
		SLO:          40 * time.Millisecond,
		Tenants: []phisim.Tenant{
			{ID: "gold", Share: 0.5, Weight: 10},
			{ID: "silver", Share: 0.3, Weight: 3},
			{ID: "bronze", Share: 0.2, Weight: 1},
		},
		Door: &phisim.Door{Margin: 0.25,
			BrownoutEnter: 28 * time.Millisecond, BrownoutExit: 21 * time.Millisecond},
		Journeys: &rc,
	}
	for f := 1; f <= phiserve.BatchSize; f++ {
		m.CostPerFill[f] = 9.5e6
	}
	return m
}

// TestModelShedStormIncident pins the A10 acceptance criteria: a 4x
// overload produces a shed-storm incident naming the dominant shedding
// tenant and a real card, every arrival resolves exactly one journey,
// tail sampling keeps all anomalous journeys, and the burn gauges read
// far above budget.
func TestModelShedStormIncident(t *testing.T) {
	m := a10Model(phitrace.Config{RingSize: 512, SampleN: 16})
	const n = 30000
	pt, rec, err := m.Simulate(mrand.New(mrand.NewSource(7)), n, 4*m.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	if got := int(pt.Counts.Resolved); got != n {
		t.Fatalf("resolved %d journeys for %d arrivals", got, n)
	}
	if pt.Counts.TerminalDups != 0 {
		t.Fatalf("%d duplicate terminals", pt.Counts.TerminalDups)
	}
	if pt.Admitted+pt.ShedOverload+pt.ShedTenant != n {
		t.Fatalf("door accounting: %d+%d+%d != %d", pt.Admitted, pt.ShedOverload, pt.ShedTenant, n)
	}
	if pt.ShedOverload+pt.ShedTenant == 0 {
		t.Fatal("4x overload shed nothing; the storm cannot form")
	}
	var storm *phitrace.Incident
	seen := map[string]bool{}
	for _, inc := range rec.Incidents() { // newest first: storm ends as the oldest
		seen[inc.Kind] = true
		if inc.Kind == "shed-storm" {
			storm = &inc
		}
	}
	if storm == nil {
		t.Fatalf("no shed-storm incident in %+v", rec.Incidents())
	}
	tenant, _ := storm.Fields["tenant"].(string)
	card, ok := storm.Fields["card"].(int)
	if tenant == "" || !ok || card < 0 || card >= m.Cards {
		t.Fatalf("storm incident must name tenant and card: %+v", storm.Fields)
	}
	if pt.BurnAll <= 1 {
		t.Fatalf("aggregate burn %.2f at 4x overload, want > 1", pt.BurnAll)
	}
	c := pt.Counts
	if c.KeptAnomalous+c.KeptSampled+c.Discarded != c.Resolved {
		t.Fatalf("sampling accounting does not balance: %+v", c)
	}
	// 1-in-16 of normal completions: the discarded share must dominate
	// the sampled share.
	if c.KeptSampled*8 > c.Discarded {
		t.Fatalf("sampling kept too much: %+v", c)
	}
	// The incident buffer also saw the brownout transition.
	if !seen["brownout-enter"] {
		t.Fatalf("no brownout-enter incident: %+v", rec.Incidents())
	}
}

// TestModelLightLoadQuiet: at half capacity nothing sheds, no incidents
// fire, and sampling discards most journeys.
func TestModelLightLoadQuiet(t *testing.T) {
	m := a10Model(phitrace.Config{SampleN: 16})
	pt, rec, err := m.Simulate(mrand.New(mrand.NewSource(7)), 10000, 0.5*m.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	if pt.ShedOverload != 0 || pt.ShedTenant != 0 {
		t.Fatalf("light load shed traffic: %+v", pt)
	}
	for _, inc := range rec.Incidents() {
		if inc.Kind == "shed-storm" {
			t.Fatalf("light load shed-storm incident: %+v", inc)
		}
	}
	if pt.Good != pt.Completed {
		t.Fatalf("light load: %d of %d completions good", pt.Good, pt.Completed)
	}
}
