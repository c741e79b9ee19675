package bench

import (
	"fmt"
	"math/rand"
	"time"

	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phisim"
)

func init() {
	register(Experiment{ID: "a8", Title: "Fleet: cards x offered load (sharded multi-card serving)", Run: runA8})
}

// a8Workers matches A6: one kernel pass in flight per core per card.
const a8Workers = 16

// runA8 sweeps fleet size against offered load through the virtual-time
// engine (phisim): a handful of keys homed by the live consistent-hash
// ring, Poisson arrivals, per-card executor sets, and work stealing
// re-homing batches whose card is busy. The acceptance row is the fixed
// saturating load (3.6x one card's full-fill capacity): a 4-card fleet
// with stealing must sustain >=3x the single card's throughput while mean
// batch fill — set by arrivals and the deadline, not by where batches
// execute — stays within 20% of the single-card value. The no-steal rows
// show why stealing is load-bearing: with few keys the hash map is
// lumpy, the hottest card saturates first, and the fleet idles behind it.
func runA8(o Options) *Table {
	rng := rand.New(rand.NewSource(o.Seed + 108))
	bits := 2048
	// The trace must be long against one kernel pass, or the fixed
	// drain-the-last-pass tail eats into the measured throughput ratio;
	// the engine is virtual-time, so a long trace costs microseconds.
	reqs := 30000
	if o.Quick {
		bits = 512
		reqs = 12000
	}
	key := keyFor(bits)
	m := machine()

	costs := verifiedPassCosts(rng, key)

	pass := m.Latency(a8Workers, costs[phiserve.BatchSize])
	const keys = 8
	sim := func(cards int, steal bool) phisim.Config {
		return phisim.Config{
			Machine: m, Cards: cards, Workers: a8Workers, CostPerFill: costs,
			FillDeadline: time.Duration(0.5 * pass * float64(time.Second)),
			Homes:        phisim.RingHomes(cards, keys), Steal: steal,
		}
	}
	capacity := sim(1, false).Capacity() // one card, req/s

	t := &Table{
		ID: "a8", Title: fmt.Sprintf("Fleet scaling, RSA-%d streaming batches (%d keys, %d workers/card, deadline 0.5 pass)", bits, keys, a8Workers),
		Columns: []string{
			"cards", "steal", "load", "offered req/s", "ops/s", "x 1-card",
			"mean fill", "p99 ms", "steals", "util",
		},
	}

	// Single-card reference throughput at the fixed saturating load; the
	// model seed is pinned per (cards, steal, load) cell for stable rows.
	var base float64
	loads := []float64{0.8, 1.8, 3.6}
	for _, cards := range []int{1, 2, 4, 8} {
		for _, steal := range []bool{false, true} {
			if cards == 1 && steal {
				continue // nothing to steal from
			}
			for _, lf := range loads {
				cellRng := rand.New(rand.NewSource(o.Seed + 108))
				pt, _, err := sim(cards, steal).Simulate(cellRng, reqs, lf*capacity)
				if err != nil {
					panic(err)
				}
				if cards == 1 && lf == 3.6 {
					base = pt.Throughput
				}
				rel := "-"
				if base > 0 && lf == 3.6 {
					rel = fmt.Sprintf("%.2fx", pt.Throughput/base)
				}
				stealCol := "off"
				if steal {
					stealCol = "on"
				} else if cards == 1 {
					stealCol = "-"
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%d", cards),
					stealCol,
					fmt.Sprintf("%.1fx card", lf),
					f1(pt.Offered),
					f1(pt.Throughput),
					rel,
					f2(pt.MeanFill),
					f2(1e3 * pt.P99Latency.Seconds()),
					fmt.Sprintf("%d", pt.Steals),
					fmt.Sprintf("%.0f%%", 100*pt.Utilization),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("one full verified 16-lane pass: %.0f cycles (%.2f ms at %d workers); single-card capacity %.0f req/s",
			costs[phiserve.BatchSize], 1e3*pass, a8Workers, capacity),
		"load is offered arrivals as a multiple of ONE card's full-fill capacity; 'x 1-card' compares",
		"throughput against the 1-card row at the same 3.6x load (the acceptance point: 4 cards with",
		"stealing must reach >=3x). Mean fill is arrival/deadline-driven, so stealing moves work",
		"without starving batches. With 8 keys hashed over the cards the no-steal rows bottleneck on",
		"the hottest card; stealing re-homes busy-card batches to the globally earliest-free executor.",
		"Poisson arrivals, virtual-time engine (phisim); same identical trace per cards/steal cell.")
	return t
}
