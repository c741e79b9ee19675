package phisim

import (
	"fmt"
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
