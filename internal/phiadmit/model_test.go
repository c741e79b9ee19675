package phiadmit_test

// Experiment A9 runs this door on the virtual-time engine
// (internal/phisim). These tests pin that model.

import (
	mrand "math/rand"
	"testing"
	"time"

	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phisim"
)

// a9Model is the experiment configuration the bench also uses (the probe
// parameters validated against the acceptance criteria): one card, a
// two-key mix so batches fill near 16 lanes at nominal load, a 40ms SLO,
// and the gold/silver/bronze tenant mix.
func a9Model(admission bool) phisim.Config {
	m := phisim.Config{
		Machine:      knc.Default(),
		Cards:        1,
		Workers:      8,
		Homes:        phisim.ModHomes(1, 2),
		FillDeadline: 4 * time.Millisecond,
		SLO:          40 * time.Millisecond,
		Tenants: []phisim.Tenant{
			{ID: "gold", Share: 0.5, Weight: 10},
			{ID: "silver", Share: 0.3, Weight: 3},
			{ID: "bronze", Share: 0.2, Weight: 1},
		},
	}
	if admission {
		// The estimate's floor is FillDeadline + one full pass (~19.4ms),
		// so the thresholds sit above it: brownout can always exit, and
		// light load never trips it.
		m.Door = &phisim.Door{Margin: 0.25,
			BrownoutEnter: 28 * time.Millisecond, BrownoutExit: 21 * time.Millisecond}
	}
	for f := 1; f <= phiserve.BatchSize; f++ {
		m.CostPerFill[f] = 9.5e6
	}
	return m
}

// TestModelOverloadInvariants pins the A9 acceptance criteria at 4x
// offered load: with admission on, goodput is at least twice the
// admission-off goodput, the p99 of admitted requests stays inside the
// SLO, and no expired lane ever reaches execution; with admission off the
// metastable collapse is visible (expired lanes do execute).
func TestModelOverloadInvariants(t *testing.T) {
	m := a9Model(true)
	offered := 4 * m.Capacity()
	const n = 60000
	on, _, err := m.Simulate(mrand.New(mrand.NewSource(7)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	off, _, err := a9Model(false).Simulate(mrand.New(mrand.NewSource(7)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	if on.ExpiredExecuted != 0 {
		t.Fatalf("admission on: %d expired lanes reached execution", on.ExpiredExecuted)
	}
	if on.P99Latency > m.SLO {
		t.Fatalf("admission on: p99 of admitted %v exceeds SLO %v", on.P99Latency, m.SLO)
	}
	if on.Goodput < 2*off.Goodput {
		t.Fatalf("admission on goodput %.0f < 2x off goodput %.0f", on.Goodput, off.Goodput)
	}
	if off.ExpiredExecuted == 0 {
		t.Fatal("admission off: expected expired lanes to reach execution under overload")
	}
	// The door's accounting must balance: every arrival is admitted, shed
	// at the overload gate, or shed by fair queuing.
	if got := on.Admitted + on.ShedOverload + on.ShedTenant; got != n {
		t.Fatalf("door accounting: %d of %d arrivals", got, n)
	}
	// Brownout fair queuing bites the low-weight tenant hardest.
	byID := map[string]phisim.TenantPoint{}
	for _, tp := range on.Tenants {
		byID[tp.ID] = tp
	}
	g, b := byID["gold"], byID["bronze"]
	if g.Offered == 0 || b.Offered == 0 {
		t.Fatalf("tenant mix missing traffic: %+v", on.Tenants)
	}
	gShed := float64(g.ShedTenant) / float64(g.Offered)
	bShed := float64(b.ShedTenant) / float64(b.Offered)
	if bShed <= gShed {
		t.Fatalf("bronze shed rate %.3f not above gold %.3f under brownout", bShed, gShed)
	}
}

// TestModelLightLoadAdmitsEverything: at half capacity the door is
// invisible — nothing sheds, nothing expires, goodput tracks the offered
// rate.
func TestModelLightLoadAdmitsEverything(t *testing.T) {
	m := a9Model(true)
	offered := 0.5 * m.Capacity()
	pt, _, err := m.Simulate(mrand.New(mrand.NewSource(7)), 20000, offered)
	if err != nil {
		t.Fatal(err)
	}
	if pt.ShedOverload != 0 || pt.ShedTenant != 0 {
		t.Fatalf("light load shed traffic: %+v", pt)
	}
	if pt.Expired != 0 || pt.ExpiredExecuted != 0 {
		t.Fatalf("light load expired lanes: %+v", pt)
	}
	if pt.Good != pt.Requests {
		t.Fatalf("light load: %d of %d good", pt.Good, pt.Requests)
	}
}
