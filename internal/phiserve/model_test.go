package phiserve_test

// Experiment A6 runs this scheduler's batching policy on one card of the
// virtual-time engine (internal/phisim). These tests pin that model.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phisim"
)

// testModel is one 8-worker card with a synthetic lane-uniform cost
// table: every fill charges the same full-pass price, like the real
// padded kernel.
func testModel(deadline time.Duration) phisim.Config {
	m := phisim.Config{Machine: knc.Default(), Cards: 1, Workers: 8, FillDeadline: deadline}
	for f := 1; f <= phiserve.BatchSize; f++ {
		m.CostPerFill[f] = 2e6
	}
	return m
}

func TestSimulateValidation(t *testing.T) {
	m := testModel(time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	if _, _, err := m.Simulate(rng, 0, 100); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, _, err := m.Simulate(rng, 10, 0); err == nil {
		t.Fatal("zero load accepted")
	}
	bad := m
	bad.CostPerFill[9] = 0
	if _, _, err := bad.Simulate(rng, 10, 100); err == nil {
		t.Fatal("unmeasured fill cost accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m := testModel(time.Millisecond)
	a, _, err := m.Simulate(rand.New(rand.NewSource(42)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.Simulate(rand.New(rand.NewSource(42)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c, _, err := m.Simulate(rand.New(rand.NewSource(43)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical points")
	}
}

// TestSimulateFillTracksLoad: heavy traffic fills every lane, starved
// traffic with a short deadline dispatches near-singleton batches.
func TestSimulateFillTracksLoad(t *testing.T) {
	m := testModel(time.Millisecond)
	// One full pass takes latency(8 workers, 2e6 cycles); offer requests
	// far faster than 16 per pass.
	pass := m.Machine.Latency(m.Workers, m.CostPerFill[phiserve.BatchSize])
	heavy, _, err := m.Simulate(rand.New(rand.NewSource(7)), 4000, 200*phiserve.BatchSize/pass)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.MeanFill < 15 {
		t.Fatalf("heavy load mean fill %.2f, want ~16", heavy.MeanFill)
	}
	// Starved: mean inter-arrival 100x the deadline → batches dispatch
	// alone.
	light, _, err := m.Simulate(rand.New(rand.NewSource(7)), 400, 10)
	if err != nil {
		t.Fatal(err)
	}
	if light.MeanFill > 1.5 {
		t.Fatalf("starved load mean fill %.2f, want ~1", light.MeanFill)
	}
	// Lane-uniform pass cost: fuller batches amortize to cheaper ops.
	if heavy.CyclesPerOp >= light.CyclesPerOp {
		t.Fatalf("full batches cost %.0f cycles/op, singletons %.0f; batching should amortize",
			heavy.CyclesPerOp, light.CyclesPerOp)
	}
}

// TestSimulateDeadlineTradeoff: at moderate load, stretching the fill
// deadline buys fill (throughput) and pays latency — the A6 knob.
func TestSimulateDeadlineTradeoff(t *testing.T) {
	// Moderate load: a few arrivals per short deadline.
	short, _, err := testModel(500*time.Microsecond).Simulate(rand.New(rand.NewSource(11)), 3000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	long, _, err := testModel(16*time.Millisecond).Simulate(rand.New(rand.NewSource(11)), 3000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if long.MeanFill <= short.MeanFill {
		t.Fatalf("longer deadline fill %.2f not above shorter %.2f", long.MeanFill, short.MeanFill)
	}
	if long.CyclesPerOp >= short.CyclesPerOp {
		t.Fatalf("longer deadline cycles/op %.0f not below shorter %.0f", long.CyclesPerOp, short.CyclesPerOp)
	}
	if long.MeanLatency <= short.MeanLatency {
		t.Fatalf("longer deadline latency %v not above shorter %v", long.MeanLatency, short.MeanLatency)
	}
}

func TestSimulateSanity(t *testing.T) {
	m := testModel(time.Millisecond)
	pt, _, err := m.Simulate(rand.New(rand.NewSource(3)), 1000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Requests != 1000 || pt.Offered != 20000 {
		t.Fatalf("point echo wrong: %+v", pt)
	}
	var batches, reqs int
	for f := 1; f <= phiserve.BatchSize; f++ {
		batches += pt.FillHist[f]
		reqs += f * pt.FillHist[f]
	}
	if reqs != 1000 || batches < 1000/phiserve.BatchSize {
		t.Fatalf("fill histogram inconsistent: %v", pt.FillHist)
	}
	if pt.FillHist[0] != 0 {
		t.Fatal("zero-fill batch recorded")
	}
	if pt.Throughput <= 0 || pt.Utilization <= 0 || pt.Utilization > 1 {
		t.Fatalf("implausible throughput/utilization: %+v", pt)
	}
	if pt.P50Latency > pt.P99Latency || pt.MeanLatency <= 0 {
		t.Fatalf("latency ordering wrong: %+v", pt)
	}
	// Every request waits at least one kernel pass.
	minPass := time.Duration(m.Machine.Latency(m.Workers, m.CostPerFill[1]) * float64(time.Second))
	if pt.P50Latency < minPass {
		t.Fatalf("p50 %v below a single pass %v", pt.P50Latency, minPass)
	}
}
