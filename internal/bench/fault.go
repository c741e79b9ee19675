package bench

import (
	"fmt"
	"math/rand"
	"time"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phisim"
	"phiopenssl/internal/rsakit"
	"phiopenssl/internal/vpu"
)

func init() {
	register(Experiment{ID: "a7", Title: "Resilience: lane fault rate vs goodput, latency and fallback fraction", Run: runA7})
}

// a7Workers matches A6: one kernel pass in flight per core.
const a7Workers = 16

// runA7 sweeps the per-lane per-pass fault rate through the virtual-time
// engine (phisim) with faults on: verified batch execution, bounded
// retries, scalar non-CRT fallback and the live circuit breaker. It
// quantifies the price of surviving a faulty card — how goodput and tail
// latency decay as faults climb from "none" to "every pass is poison",
// and where the breaker gives up on the vector path entirely.
func runA7(o Options) *Table {
	rng := rand.New(rand.NewSource(o.Seed + 107))
	bits := 2048
	reqs := 5000
	if o.Quick {
		bits = 512
		reqs = 1500
	}
	key := keyFor(bits)
	m := machine()

	costs := verifiedPassCosts(rng, key)

	// Unverified full pass, for the verification-overhead footnote.
	var unverified float64
	{
		cs := make([]bn.Nat, phiserve.BatchSize)
		for l := range cs {
			c, err := bn.RandomRange(rng, bn.One(), key.N)
			if err != nil {
				panic(err)
			}
			cs[l] = c
		}
		u := vpu.New()
		if _, err := rsakit.PrivateOpBatchN(u, key, cs); err != nil {
			panic(err)
		}
		unverified = knc.KNCVectorCosts.VectorCycles(u.Counts())
	}

	// The scalar fallback's price: one non-CRT verified private op on the
	// MPSS baseline (the degraded path never touches the vector unit).
	c0, err := bn.RandomRange(rng, bn.One(), key.N)
	if err != nil {
		panic(err)
	}
	scalar := measure(baseline.NewMPSS(), func(e engine.Engine) {
		if _, err := rsakit.PrivateOp(e, key, c0, rsakit.PrivateOpts{UseCRT: false, Verify: true}); err != nil {
			panic(err)
		}
	})

	pass := m.Latency(a7Workers, costs[phiserve.BatchSize])
	faults := &phisim.Faults{ScalarCost: scalar}
	sim := phisim.Config{
		Machine: m, Cards: 1, Workers: a7Workers, CostPerFill: costs,
		FillDeadline: time.Duration(pass * float64(time.Second)), // 1 full pass
		Faults:       faults,
	}
	load := 0.6 * sim.Capacity()

	t := &Table{
		ID: "a7", Title: fmt.Sprintf("Lane fault rate vs goodput, RSA-%d verified streaming batches (%d workers, 60%% load)", bits, a7Workers),
		Columns: []string{
			"lane fault rate", "faulted lanes", "retry passes", "fallback",
			"breaker trips", "cycles/op", "ops/s", "p50 ms", "p99 ms",
		},
	}
	rates := []float64{0, 1e-4, 1e-3, 1e-2, 0.05, 0.2}
	for _, rate := range rates {
		faults.Rate = rate
		pt, _, err := sim.Simulate(rng, reqs, load)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", rate),
			fmt.Sprintf("%d", pt.FaultedLanes),
			fmt.Sprintf("%d", pt.RetryPasses),
			fmt.Sprintf("%.1f%%", 100*float64(pt.FallbackOps)/float64(pt.Requests)),
			fmt.Sprintf("%d", pt.BreakerTrips),
			fmt.Sprintf("%.0f", pt.CyclesPerOp),
			f1(pt.Throughput),
			f2(1e3 * pt.P50Latency.Seconds()),
			f2(1e3 * pt.P99Latency.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("verified full pass: %.0f cycles, +%.1f%% over the unverified pass (%.0f) — the always-on Bellcore tax",
			costs[phiserve.BatchSize], 100*(costs[phiserve.BatchSize]/unverified-1), unverified),
		fmt.Sprintf("scalar non-CRT fallback op: %.0f cycles (%.1fx a full verified pass)",
			scalar, scalar/costs[phiserve.BatchSize]),
		"every pass pays the Bellcore re-encryption check; faulted lanes retry on fresh batches",
		"(MaxRetries 2) then degrade to the scalar fallback; the breaker opens on the rolling",
		"pass-fault rate and probes recovery after its cooldown. Poisson arrivals at 60% of",
		"full-fill capacity, fill deadline = one pass (phisim engine, seeded)")
	return t
}
