package phifleet_test

// Experiment A8 runs this fleet's sharding on the virtual-time engine
// (internal/phisim): keys homed by the live ring, per-card executors and
// stealing. These tests pin that model.

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phisim"
)

// testModel builds an 8-key fleet with a flat synthetic pass cost (real
// passes are lane-uniform too — padding makes a partial pass cost a full
// one).
func testModel(cards int, steal bool) phisim.Config {
	m := phisim.Config{
		Machine: knc.Default(),
		Cards:   cards,
		Workers: 4,
		Homes:   phisim.RingHomes(cards, 8),
		Steal:   steal,
	}
	for f := 1; f <= phiserve.BatchSize; f++ {
		m.CostPerFill[f] = 2e6
	}
	pass := m.Machine.Latency(m.Workers, m.CostPerFill[phiserve.BatchSize])
	m.FillDeadline = time.Duration(0.5 * pass * float64(time.Second))
	return m
}

// TestFleetModelScalingAcceptance is the A8 acceptance shape: at a fixed
// offered load saturating 3.6× one card, a 4-card fleet with stealing
// sustains ≥3× the single card's throughput, and its mean batch fill
// stays within 20% of the single-card value.
func TestFleetModelScalingAcceptance(t *testing.T) {
	const n = 4000
	one := testModel(1, true)
	four := testModel(4, true)
	offered := 3.6 * one.Capacity()

	p1, _, err := one.Simulate(rand.New(rand.NewSource(1)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	p4, _, err := four.Simulate(rand.New(rand.NewSource(1)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	if p4.Throughput < 3*p1.Throughput {
		t.Fatalf("4-card throughput %.0f < 3x single-card %.0f", p4.Throughput, p1.Throughput)
	}
	if d := math.Abs(p4.MeanFill - p1.MeanFill); d > 0.2*p1.MeanFill {
		t.Fatalf("4-card mean fill %.2f drifted beyond 20%% of single-card %.2f", p4.MeanFill, p1.MeanFill)
	}
	if p4.Steals == 0 {
		t.Fatalf("saturated hot card never shed work: %+v", p4)
	}

	// Stealing is what closes the gap: without it the hottest card's
	// backlog drags fleet throughput below the stealing fleet's.
	noSteal := testModel(4, false)
	pn, _, err := noSteal.Simulate(rand.New(rand.NewSource(1)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	if pn.Throughput >= p4.Throughput {
		t.Fatalf("stealing did not help: with %.0f, without %.0f", p4.Throughput, pn.Throughput)
	}
	if pn.P99Latency <= p4.P99Latency {
		t.Fatalf("stealing did not cut tail latency: with %v, without %v", p4.P99Latency, pn.P99Latency)
	}
}

// TestFleetModelValidation: bad parameters error instead of simulating
// garbage.
func TestFleetModelValidation(t *testing.T) {
	m := testModel(2, true)
	rng := rand.New(rand.NewSource(1))
	if _, _, err := m.Simulate(rng, 0, 100); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, _, err := m.Simulate(rng, 10, 0); err == nil {
		t.Fatal("offered=0 must error")
	}
	bad := m
	bad.CostPerFill[7] = 0
	if _, _, err := bad.Simulate(rng, 10, 100); err == nil {
		t.Fatal("missing cost must error")
	}
	bad = m
	bad.Cards = 0
	if _, _, err := bad.Simulate(rng, 10, 100); err == nil {
		t.Fatal("cards=0 must error")
	}
}
