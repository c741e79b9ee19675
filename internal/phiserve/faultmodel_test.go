package phiserve_test

// Experiment A7 runs this scheduler's fault handling (verified passes,
// bounded retries, the scalar fallback and the live breaker) on one card
// of the virtual-time engine (internal/phisim). These tests pin that
// model.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"phiopenssl/internal/phisim"
)

// testFaultModel is testModel with faults on; the scalar non-CRT op
// costs ~15x one 16-lane pass.
func testFaultModel(rate float64) phisim.Config {
	m := testModel(time.Millisecond)
	m.Faults = &phisim.Faults{Rate: rate, ScalarCost: 3e7}
	return m
}

func fallbackFraction(pt phisim.Point) float64 {
	return float64(pt.FallbackOps) / float64(pt.Requests)
}

func TestFaultModelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, _, err := testFaultModel(-0.1).Simulate(rng, 10, 100); err == nil {
		t.Fatal("negative fault rate accepted")
	}
	if _, _, err := testFaultModel(1.1).Simulate(rng, 10, 100); err == nil {
		t.Fatal("fault rate > 1 accepted")
	}
	bad := testFaultModel(0)
	bad.Faults.ScalarCost = 0
	if _, _, err := bad.Simulate(rng, 10, 100); err == nil {
		t.Fatal("unmeasured scalar cost accepted")
	}
}

// TestFaultModelZeroRateMatchesLoadModel: at fault rate zero the fault
// path must reproduce the fault-free run exactly — same batches, same
// costs, same latencies.
func TestFaultModelZeroRateMatchesLoadModel(t *testing.T) {
	fp, _, err := testFaultModel(0).Simulate(rand.New(rand.NewSource(21)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	lp, _, err := testModel(time.Millisecond).Simulate(rand.New(rand.NewSource(21)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if d := fp.Utilization - lp.Utilization; d > 1e-9 || d < -1e-9 {
		t.Fatalf("utilization diverged: %v vs %v", fp.Utilization, lp.Utilization)
	}
	if fp.FaultedLanes != 0 || fp.RetryPasses != 0 || fp.FallbackOps != 0 ||
		fp.BreakerTrips != 0 || fp.MeanAttempts != 0 {
		t.Fatalf("rate 0 produced fault activity: %+v", fp)
	}
	if !reflect.DeepEqual(fp, lp) {
		t.Fatalf("fault path at rate 0 diverged from the fault-free run:\n%+v\n%+v", fp, lp)
	}
}

func TestFaultModelDeterministic(t *testing.T) {
	fm := testFaultModel(1e-2)
	a, _, err := fm.Simulate(rand.New(rand.NewSource(33)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := fm.Simulate(rand.New(rand.NewSource(33)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestFaultModelFaultsCostMore: a moderate fault rate must show up as
// detected lanes, retry passes and a higher amortized cost, while the
// breaker stays closed.
func TestFaultModelFaultsCostMore(t *testing.T) {
	clean, _, err := testFaultModel(0).Simulate(rand.New(rand.NewSource(5)), 3000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	faulty, _, err := testFaultModel(1e-2).Simulate(rand.New(rand.NewSource(5)), 3000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.FaultedLanes == 0 || faulty.RetryPasses == 0 {
		t.Fatalf("rate 1e-2 over 3000 ops produced no fault activity: %+v", faulty)
	}
	if faulty.CyclesPerOp <= clean.CyclesPerOp {
		t.Fatalf("faults came for free: %.0f vs clean %.0f cycles/op",
			faulty.CyclesPerOp, clean.CyclesPerOp)
	}
	if faulty.BreakerTrips != 0 {
		t.Fatalf("breaker tripped at a 1e-2 lane rate (pass fault rate ~0.15): %+v", faulty)
	}
	if faulty.MeanAttempts <= 0 {
		t.Fatalf("retries happened but MeanAttempts = %v", faulty.MeanAttempts)
	}
}

// TestFaultModelHighRateTripsBreakerAndDegrades: near-certain pass faults
// must trip the breaker and push most traffic onto the scalar fallback —
// the graceful-degradation end of the A7 sweep.
func TestFaultModelHighRateTripsBreakerAndDegrades(t *testing.T) {
	pt, _, err := testFaultModel(0.5).Simulate(rand.New(rand.NewSource(9)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if pt.BreakerTrips < 1 {
		t.Fatalf("breaker never tripped at lane rate 0.5: %+v", pt)
	}
	if fallbackFraction(pt) < 0.5 {
		t.Fatalf("fallback fraction %.2f, want most traffic degraded", fallbackFraction(pt))
	}
	if pt.Throughput <= 0 || pt.MeanLatency <= 0 {
		t.Fatalf("degraded mode still must make progress: %+v", pt)
	}
	if pt.CyclesPerOp < testFaultModel(0).Faults.ScalarCost*fallbackFraction(pt) {
		t.Fatalf("cycles/op %.0f implausibly low for %.0f%% scalar traffic",
			pt.CyclesPerOp, 100*fallbackFraction(pt))
	}
}
