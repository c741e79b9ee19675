package bench

import (
	"fmt"
	"math/rand"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phisim"
	"phiopenssl/internal/rsakit"
)

func init() {
	register(Experiment{ID: "a6", Title: "Scheduler: fill deadline vs offered load (streaming batches)", Run: runA6})
}

// a6Workers is the batch-executor count the sweep models: one kernel pass
// in flight per core keeps the issue-efficiency model in its one-thread
// regime, the configuration the scheduler targets.
const a6Workers = 16

// runA6 sweeps the streaming scheduler's fill deadline against offered
// load through the virtual-time engine (phisim) on one card, costing
// every pass with real metered verified-pass cycles. It shows
// the deadline as the latency/throughput knob: short deadlines dispatch
// starved batches (per-op cost drifts toward the horizontal engine's),
// long deadlines fill the lanes but make early arrivals wait.
func runA6(o Options) *Table {
	rng := rand.New(rand.NewSource(o.Seed + 106))
	bits := 2048
	reqs := 5000
	if o.Quick {
		bits = 512
		reqs = 1500
	}
	key := keyFor(bits)
	m := machine()

	costs := verifiedPassCosts(rng, key)

	// The per-op (horizontal) engine is the floor the scheduler has to
	// beat once batches fill.
	phi := engineSet()[0]
	perOp := measure(phi, func(e engine.Engine) {
		if _, err := rsakit.PrivateOp(e, key, bn.One().AddUint64(41), rsakit.DefaultPrivateOpts()); err != nil {
			panic(err)
		}
	})

	sim := phisim.Config{Machine: m, Cards: 1, Workers: a6Workers, CostPerFill: costs}
	pass := m.Latency(a6Workers, costs[phiserve.BatchSize]) // one full kernel pass, seconds
	capacity := sim.Capacity()

	t := &Table{
		ID: "a6", Title: fmt.Sprintf("Fill deadline vs offered load, RSA-%d streaming batches (%d workers)", bits, a6Workers),
		Columns: []string{
			"deadline", "load", "offered req/s", "mean fill",
			"cycles/op", "ops/s", "p50 ms", "p99 ms", "util",
		},
	}
	deadlines := []float64{0.05, 0.25, 1, 4} // x one full pass
	loads := []float64{0.05, 0.2, 0.6, 0.9}  // x full-fill capacity
	for _, df := range deadlines {
		sim.FillDeadline = time.Duration(df * pass * float64(time.Second))
		for _, lf := range loads {
			pt, _, err := sim.Simulate(rng, reqs, lf*capacity)
			if err != nil {
				panic(err)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.2f pass", df),
				fmt.Sprintf("%.0f%%", 100*lf),
				f1(pt.Offered),
				f2(pt.MeanFill),
				fmt.Sprintf("%.0f", pt.CyclesPerOp),
				f1(pt.Throughput),
				f2(1e3 * pt.P50Latency.Seconds()),
				f2(1e3 * pt.P99Latency.Seconds()),
				fmt.Sprintf("%.0f%%", 100*pt.Utilization),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("one full verified 16-lane pass: %.0f cycles (%.2f ms at %d workers); full-fill capacity %.0f req/s",
			costs[phiserve.BatchSize], 1e3*pass, a6Workers, capacity),
		fmt.Sprintf("per-op horizontal engine: %.0f cycles/op — streaming batches beat it once mean fill > %.1f",
			perOp, costs[phiserve.BatchSize]/perOp),
		"a partial batch pads unused lanes and costs a full pass, so short deadlines at light",
		"load waste lanes (cycles/op rises toward the singleton cost); longer deadlines trade",
		"p50/p99 latency for fill. Poisson arrivals, virtual-time engine (phisim)")
	return t
}
