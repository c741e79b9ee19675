package phisim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"phiopenssl/internal/knc"
	"phiopenssl/internal/phitrace"
)

// testConfig is one single-worker card with a flat pass cost, keys keys
// on it, two tenants and every journey kept.
func testConfig(keys int, deadline time.Duration) Config {
	c := Config{
		Machine: knc.Default(), Cards: 1, Workers: 1,
		FillDeadline: deadline, Homes: ModHomes(1, keys), SLO: time.Hour,
		Tenants:  []Tenant{{ID: "a", Share: 1}, {ID: "b", Share: 3}},
		Journeys: &phitrace.Config{SampleN: 1, RingSize: 64},
	}
	for f := 1; f <= lanes; f++ {
		c.CostPerFill[f] = 2e6
	}
	return c
}

// journeys returns the kept journeys by id.
func journeys(rec *phitrace.Recorder) map[uint64]phitrace.View {
	out := map[uint64]phitrace.View{}
	for _, j := range rec.Kept(0) {
		v := j.View()
		out[v.ID] = v
	}
	return out
}

// TestArrivalDrawOrder: each arrival draws its gap, then its tenant, then
// its key, so a replay of the same draws predicts every journey.
func TestArrivalDrawOrder(t *testing.T) {
	const n, offered = 40, 1000.0
	c := testConfig(3, time.Millisecond)
	_, rec, err := c.Simulate(rand.New(rand.NewSource(5)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	js := journeys(rec)
	rng := rand.New(rand.NewSource(5))
	at := 0.0
	for id := uint64(1); id <= n; id++ {
		at += rng.ExpFloat64() / offered
		tenant := "a"
		if rng.Float64()*4 > 1 {
			tenant = "b"
		}
		key := fmt.Sprintf("key-%d", rng.Intn(3))
		v := js[id]
		if v.Tenant != tenant || v.Key != key || !v.Start.Equal(epoch.Add(secs(at))) {
			t.Fatalf("journey %d = %s/%s at %v, want %s/%s at %v",
				id, v.Tenant, v.Key, v.Start, tenant, key, epoch.Add(secs(at)))
		}
	}
}

// TestOpenBatchesDispatchAtFinalArrival: with a fill deadline longer than
// the trace, no batch seals early; after the final arrival every open
// batch dispatches at that arrival, oldest first, on the one worker.
func TestOpenBatchesDispatchAtFinalArrival(t *testing.T) {
	const n = 6
	c := testConfig(2, time.Hour)
	pt, rec, err := c.Simulate(rand.New(rand.NewSource(9)), n, 100)
	if err != nil {
		t.Fatal(err)
	}
	passes := 0
	for _, p := range pt.FillHist {
		passes += p
	}
	if pt.Completed != n || passes != 2 {
		t.Fatalf("want %d completions in two batches: %+v", n, pt)
	}
	js := journeys(rec)
	final := js[n].Start
	pass := secs(c.Machine.Latency(c.Workers, c.CostPerFill[1]))
	// The first arrival's batch is the oldest, so it runs first.
	first := js[1].Key
	for id := uint64(1); id <= n; id++ {
		v := js[id]
		sealed, ran := time.Time{}, time.Time{}
		for _, e := range v.Events {
			at := v.Start.Add(time.Duration(e.TUS * float64(time.Microsecond)))
			switch e.Kind {
			case "seal":
				sealed = at
			case "pass":
				ran = at
			}
		}
		want := final
		if v.Key != first {
			want = final.Add(pass)
		}
		if d := sealed.Sub(final); d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("journey %d sealed at %v, want the final arrival %v", id, sealed, final)
		}
		if d := ran.Sub(want); d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("journey %d (%s) ran at %v, want %v", id, v.Key, ran, want)
		}
	}
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, mutate := range map[string]func(*Config){
		"workers":  func(c *Config) { c.Workers = 0 },
		"home":     func(c *Config) { c.Homes = []int{0, 1} },
		"door slo": func(c *Config) { c.Door, c.SLO = &Door{}, 0 },
	} {
		c := testConfig(1, time.Millisecond)
		mutate(&c)
		if _, _, err := c.Simulate(rng, 10, 100); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestDoorRefillsAtLiveRate pins the engine's door to the live one: in a
// run that never leaves brownout, each tenant's admissions equal its live
// allowance, burst + span × Capacity × w/(ΣW+1), within one token. The +1
// is the live door's implicit class; a bucket refilled at Capacity × w/ΣW
// admits 15/14 of the allowance for this 10:3:1 mix.
func TestDoorRefillsAtLiveRate(t *testing.T) {
	const n, seed = 30000, 3
	c := Config{
		Machine: knc.Default(), Cards: 1, Workers: 8,
		FillDeadline: time.Millisecond, SLO: time.Hour,
		Tenants: []Tenant{
			{ID: "gold", Share: 0.5, Weight: 10},
			{ID: "silver", Share: 0.3, Weight: 3},
			{ID: "bronze", Share: 0.2, Weight: 1},
		},
		// Both thresholds sit below the estimate's floor (the fill
		// deadline plus one pass), so the first arrival enters brownout
		// and no later one leaves it; no estimate reaches the SLO.
		Door: &Door{BrownoutEnter: time.Millisecond, BrownoutExit: time.Millisecond / 2},
	}
	for f := 1; f <= lanes; f++ {
		c.CostPerFill[f] = 9.5e6
	}
	capacity := c.Capacity()
	offered := 10 * capacity
	pt, _, err := c.Simulate(rand.New(rand.NewSource(seed)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Brownouts != 1 || pt.ShedOverload != 0 {
		t.Fatalf("want one brownout and no overload shed: %+v", pt)
	}
	// Replay the arrivals for each tenant's first and last arrival: its
	// bucket's first and last touch.
	r := &run{Config: c, rng: rand.New(rand.NewSource(seed)), tenants: c.Tenants, homes: []int{0}}
	r.arrive(n, offered)
	first, last := make([]float64, len(c.Tenants)), make([]float64, len(c.Tenants))
	for i := len(r.reqs) - 1; i >= 0; i-- {
		q := r.reqs[i]
		if last[q.tenant] == 0 {
			last[q.tenant] = q.at
		}
		first[q.tenant] = q.at
	}
	sumW := 1.0 // the implicit class
	for _, tn := range c.Tenants {
		sumW += tn.Weight
	}
	for i, tn := range c.Tenants {
		rate := capacity * tn.Weight / sumW
		burst := max(rate/10, 1) // 100 ms of the rate, at least one token
		allowance := burst + (last[i]-first[i])*rate
		if got := float64(pt.Tenants[i].Admitted); math.Abs(got-allowance) > 1 {
			t.Errorf("%s admitted %.0f, live allowance %.1f (ratio %.4f)", tn.ID, got, allowance, got/allowance)
		}
	}
}
