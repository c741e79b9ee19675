package bench

import (
	"fmt"
	"math/rand"
	"time"

	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phisim"
)

func init() {
	register(Experiment{ID: "a9", Title: "Admission: SLO-aware shedding vs metastable overload", Run: runA9})
}

// a9Workers keeps the A9 card at the shape the phiadmit model tests pin.
const a9Workers = 8

// a9Tenants is the A9/A10 traffic mix: gold, silver and bronze at shares
// 5:3:2 and brownout weights 10:3:1.
var a9Tenants = []phisim.Tenant{
	{ID: "gold", Share: 0.5, Weight: 10},
	{ID: "silver", Share: 0.3, Weight: 3},
	{ID: "bronze", Share: 0.2, Weight: 1},
}

// runA9 sweeps offered load from 1x to 5x of one card's full-fill capacity
// through the virtual-time engine (phisim), with the admission door on
// and off, over a three-tenant traffic mix. The story the table tells is
// the metastable-overload cliff: with admission off, every request past
// capacity still queues, the backlog grows for the whole run, and goodput
// (requests finished inside their SLO) collapses toward zero even though
// the executors never idle. With admission on, the door sheds the excess
// for one cheap rejection each, expired lanes are dropped before
// execution (the expExec column must stay 0), and the p99 of what was
// admitted stays inside the SLO.
//
// The workload parameters are expressed in units of one measured full
// kernel pass, matching the configuration validated by the A9 model
// tests in phiadmit: fill deadline 0.26 pass, SLO 2.6 pass, brownout
// hysteresis at 1.82/1.37 pass (above the estimate's floor of 1.26 pass
// so brownout can always exit), margin 0.25.
func runA9(o Options) *Table {
	rng := rand.New(rand.NewSource(o.Seed + 109))
	bits := 2048
	reqs := 60000
	if o.Quick {
		bits = 512
		reqs = 20000
	}
	key := keyFor(bits)
	m := machine()

	costs := verifiedPassCosts(rng, key)

	pass := m.Latency(a9Workers, costs[phiserve.BatchSize])
	dur := func(x float64) time.Duration {
		return time.Duration(x * pass * float64(time.Second))
	}
	door := &phisim.Door{Margin: 0.25, BrownoutEnter: dur(1.82), BrownoutExit: dur(1.37)}
	sim := phisim.Config{
		Machine: m, Cards: 1, Workers: a9Workers, CostPerFill: costs,
		FillDeadline: dur(0.26), Homes: phisim.ModHomes(1, 2),
		Tenants: a9Tenants, SLO: dur(2.6),
	}
	capacity := sim.Capacity()

	t := &Table{
		ID: "a9",
		Title: fmt.Sprintf("Admission control under overload, RSA-%d (%d workers, SLO %.0fms, 3 tenants 10:3:1)",
			bits, a9Workers, 1e3*sim.SLO.Seconds()),
		Columns: []string{
			"admission", "load", "offered req/s", "admitted", "shed slo", "shed fair",
			"dropped", "goodput", "good %", "p99 adm ms", "mean fill", "expExec", "brownouts",
		},
	}

	for _, lf := range []float64{1, 2, 3, 4, 5} {
		for _, admission := range []bool{false, true} {
			cellRng := rand.New(rand.NewSource(o.Seed + 109))
			sim.Door = nil
			if admission {
				sim.Door = door
			}
			pt, _, err := sim.Simulate(cellRng, reqs, lf*capacity)
			if err != nil {
				panic(err)
			}
			adm := "off"
			if admission {
				adm = "on"
			}
			goodPct := 0.0
			if pt.Admitted > 0 {
				goodPct = 100 * float64(pt.Good) / float64(pt.Admitted)
			}
			t.Rows = append(t.Rows, []string{
				adm,
				fmt.Sprintf("%.0fx", lf),
				f1(pt.Offered),
				fmt.Sprintf("%d", pt.Admitted),
				fmt.Sprintf("%d", pt.ShedOverload),
				fmt.Sprintf("%d", pt.ShedTenant),
				fmt.Sprintf("%d", pt.Expired),
				f1(pt.Goodput),
				fmt.Sprintf("%.1f%%", goodPct),
				f2(1e3 * pt.P99Latency.Seconds()),
				f2(pt.MeanFill),
				fmt.Sprintf("%d", pt.ExpiredExecuted),
				fmt.Sprintf("%d", pt.Brownouts),
			})
			// The acceptance point: spell out the per-tenant split at 4x
			// so the brownout fairness ordering is visible in the report.
			if admission && lf == 4 {
				for _, tp := range pt.Tenants {
					t.Notes = append(t.Notes, fmt.Sprintf(
						"4x tenant %-6s offered %5d admitted %5d shedSLO %5d shedFair %4d good %5d p99 %.2fms",
						tp.ID, tp.Offered, tp.Admitted, tp.ShedOverload, tp.ShedTenant, tp.Good,
						1e3*tp.P99.Seconds()))
				}
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("one full verified 16-lane pass: %.0f cycles (%.2f ms at %d workers); card capacity %.0f req/s",
			costs[phiserve.BatchSize], 1e3*pass, a9Workers, capacity),
		fmt.Sprintf("fill deadline %.2fms, SLO %.1fms (2.6 passes), brownout enter/exit %.1f/%.1fms, margin 0.25",
			1e3*sim.FillDeadline.Seconds(), 1e3*sim.SLO.Seconds(),
			1e3*door.BrownoutEnter.Seconds(), 1e3*door.BrownoutExit.Seconds()),
		"goodput counts only requests finished inside their SLO; 'good %' is goodput over admitted.",
		"'dropped' lanes were admitted but expired in queue and were dropped at a pre-execution",
		"checkpoint; 'expExec' counts lanes that reached the kernel after their deadline — the drop",
		"checkpoints must keep it at 0 whenever admission is on. With admission off the backlog grows",
		"without bound: completions still happen (executors never idle) but arrive seconds late, so",
		"goodput collapses while the same offered load with admission on holds ~94% of capacity.",
		"Poisson arrivals, virtual-time engine (phisim); identical trace per load/admission cell.")
	return t
}
