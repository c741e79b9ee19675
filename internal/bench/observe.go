package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phisim"
	"phiopenssl/internal/phitrace"
)

func init() {
	register(Experiment{ID: "a10", Title: "Observability: request journeys, tail sampling, incident flight recorder", Run: runA10})
}

// a10Cards spreads the A9 machine shape over two cards so sheds and
// incidents carry real card attribution.
const a10Cards = 2

// runA10 sweeps offered load from 1x to 4x of the two-card fleet's
// capacity through the virtual-time engine (phisim): the A9 stack spread
// over two cards (key k homed on card k mod 2), driving a real journey
// Recorder on the virtual clock. The table shows the journey stream's
// accounting at each point — every arrival resolves exactly one journey,
// anomalous journeys are all kept, normal completions are sampled
// 1-in-16 — and the 4x row is the acceptance point: the shed storm
// auto-triggers an incident snapshot naming the dominant shedding tenant
// and the card whose backlog tripped it, and the per-tenant SLO burn
// gauges read far above 1.
func runA10(o Options) *Table {
	rng := rand.New(rand.NewSource(o.Seed + 110))
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
	sim := phisim.Config{
		Machine: m, Cards: a10Cards, Workers: a9Workers, CostPerFill: costs,
		FillDeadline: dur(0.26), Homes: phisim.ModHomes(a10Cards, 4),
		Tenants: a9Tenants, SLO: dur(2.6),
		Door:     &phisim.Door{Margin: 0.25, BrownoutEnter: dur(1.82), BrownoutExit: dur(1.37)},
		Journeys: &phitrace.Config{RingSize: 512, SampleN: 16},
	}
	capacity := sim.Capacity()

	t := &Table{
		ID: "a10",
		Title: fmt.Sprintf("Request journeys under overload, RSA-%d (%d cards x %d workers, SLO %.0fms, sample 1-in-16)",
			bits, a10Cards, a9Workers, 1e3*sim.SLO.Seconds()),
		Columns: []string{
			"load", "offered req/s", "admitted", "shed slo", "shed fair", "dropped",
			"goodput", "p99 adm ms", "resolved", "kept anom", "kept samp", "discarded", "incidents", "burn all",
		},
	}

	for _, lf := range []float64{1, 2, 4} {
		cellRng := rand.New(rand.NewSource(o.Seed + 110))
		pt, rec, err := sim.Simulate(cellRng, reqs, lf*capacity)
		if err != nil {
			panic(err)
		}
		c := pt.Counts
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0fx", lf),
			f1(pt.Offered),
			fmt.Sprintf("%d", pt.Admitted),
			fmt.Sprintf("%d", pt.ShedOverload),
			fmt.Sprintf("%d", pt.ShedTenant),
			fmt.Sprintf("%d", pt.Expired),
			f1(pt.Goodput),
			f2(1e3 * pt.P99Latency.Seconds()),
			fmt.Sprintf("%d", c.Resolved),
			fmt.Sprintf("%d", c.KeptAnomalous),
			fmt.Sprintf("%d", c.KeptSampled),
			fmt.Sprintf("%d", c.Discarded),
			fmt.Sprintf("%d", c.Incidents),
			f2(pt.BurnAll),
		})
		// The acceptance point: the 4x shed storm's incident trail and the
		// per-tenant burn gauges go into the report verbatim.
		if lf == 4 {
			incs := rec.Incidents()
			for i := len(incs) - 1; i >= 0; i-- { // oldest first
				inc := incs[i]
				// Virtual time starts at the Unix epoch.
				line := fmt.Sprintf("4x incident %-14s at %8.1fms", inc.Kind,
					float64(inc.At.UnixNano())/float64(time.Millisecond))
				if inc.Kind == "shed-storm" {
					line += fmt.Sprintf("  tenant=%v card=%v sheds=%v",
						inc.Fields["tenant"], inc.Fields["card"], inc.Fields["sheds_in_window"])
				}
				t.Notes = append(t.Notes, line)
			}
			for _, tp := range pt.Tenants {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"4x tenant %-6s offered %5d admitted %5d shedSLO %5d shedFair %5d good %5d burn %.2f",
					tp.ID, tp.Offered, tp.Admitted, tp.ShedOverload, tp.ShedTenant, tp.Good, tp.Burn))
			}
			if o.Journeys {
				t.Notes = append(t.Notes, sampleJourneyNotes(rec)...)
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("one full verified 16-lane pass: %.0f cycles (%.2f ms at %d workers); fleet capacity %.0f req/s",
			costs[phiserve.BatchSize], 1e3*pass, a9Workers, capacity),
		"every arrival begins a journey at the door and resolves it with exactly one terminal event;",
		"anomalous journeys (shed/expired/slow) are always kept, normal completions sampled 1-in-16,",
		"so 'kept anom'+'kept samp'+'discarded' = 'resolved' at every load point.",
		"'burn all' is the aggregate SLO burn rate (bad fraction over the 5% error budget) at run end;",
		"the 4x shed storm auto-triggers a shed-storm incident naming the dominant tenant and card.",
		"Poisson arrivals, virtual-time engine (phisim); identical trace per load cell.")
	return t
}

// sampleJourneyNotes renders a few kept journeys (one anomalous shed, one
// completion if present) as report notes — the -journeys flag's output.
func sampleJourneyNotes(rec *phitrace.Recorder) []string {
	var notes []string
	var shownShed, shownDone bool
	for _, j := range rec.Kept(0) {
		v := j.View()
		isShed := j.Outcome().Shed()
		if (isShed && shownShed) || (!isShed && shownDone) {
			continue
		}
		if isShed {
			shownShed = true
		} else {
			shownDone = true
		}
		var steps []string
		for _, e := range v.Events {
			s := e.Kind
			if e.Card >= 0 {
				s += fmt.Sprintf("@%d", e.Card)
			}
			steps = append(steps, s)
		}
		notes = append(notes, fmt.Sprintf(
			"4x journey id=%d tenant=%s key=%s outcome=%s anomaly=%q lat=%.2fms: %s",
			v.ID, v.Tenant, v.Key, v.Outcome, v.Anomaly, v.LatencyUS/1e3,
			strings.Join(steps, " > ")))
		if shownShed && shownDone {
			break
		}
	}
	return notes
}
