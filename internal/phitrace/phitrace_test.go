package phitrace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

var testBase = time.Unix(0, 0).UTC()

// mkClock returns a settable virtual clock.
func mkClock() (func() time.Time, func(d time.Duration)) {
	now := testBase
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

func TestTailSamplingKeepsAnomalousAlways(t *testing.T) {
	clock, advance := mkClock()
	r := New(Config{RingSize: 1024, SampleN: 4, Clock: clock})
	const normals, anomalous = 100, 17
	for i := 0; i < normals; i++ {
		j := r.Begin("gold", "key", clock().Add(time.Second), time.Second)
		advance(time.Millisecond)
		j.Finish(OutcomeCompleted, "fill=16")
	}
	for i := 0; i < anomalous; i++ {
		j := r.Begin("bronze", "key", clock().Add(time.Second), time.Second)
		j.Event("route", 1, "home")
		advance(time.Millisecond)
		j.Finish(OutcomeShedOverload, "est high")
	}
	c := r.Counts()
	if c.Resolved != normals+anomalous {
		t.Fatalf("resolved %d, want %d", c.Resolved, normals+anomalous)
	}
	if c.KeptAnomalous != anomalous {
		t.Fatalf("kept anomalous %d, want all %d", c.KeptAnomalous, anomalous)
	}
	if c.KeptSampled != normals/4 {
		t.Fatalf("kept sampled %d, want 1-in-4 of %d = %d", c.KeptSampled, normals, normals/4)
	}
	if c.KeptAnomalous+c.KeptSampled+c.Discarded != c.Resolved {
		t.Fatalf("sampling accounting does not balance: %+v", c)
	}
	// The ring serves newest-first: the last resolution is first.
	kept := r.Kept(1)
	if len(kept) != 1 || kept[0].Outcome() != OutcomeShedOverload {
		t.Fatalf("newest kept journey = %v", kept[0].Outcome())
	}
}

func TestSlowCompletionIsAnomalous(t *testing.T) {
	clock, advance := mkClock()
	r := New(Config{SampleN: 1 << 30, SLOFraction: 0.8, Clock: clock})
	// 90% of a 100ms SLO: past the 0.8 fraction, kept as "slow".
	j := r.Begin("", "k", clock().Add(100*time.Millisecond), 100*time.Millisecond)
	advance(90 * time.Millisecond)
	j.Finish(OutcomeCompleted, "")
	if a := j.Anomaly(); a != "slow" {
		t.Fatalf("anomaly = %q, want slow", a)
	}
	if c := r.Counts(); c.KeptAnomalous != 1 {
		t.Fatalf("slow completion not kept: %+v", c)
	}
	// 10% of budget: plain completion, discarded at this sampling rate.
	j2 := r.Begin("", "k", clock().Add(100*time.Millisecond), 100*time.Millisecond)
	advance(10 * time.Millisecond)
	j2.Finish(OutcomeCompleted, "")
	if a := j2.Anomaly(); a != "" {
		t.Fatalf("fast completion anomaly = %q, want none", a)
	}
}

func TestJourneyExactlyOneTerminal(t *testing.T) {
	clock, _ := mkClock()
	r := New(Config{Clock: clock})
	j := r.Begin("t", "k", time.Time{}, 0)
	j.Finish(OutcomeCompleted, "first")
	j.Finish(OutcomeFaulted, "second") // the steal/finish race, forced
	j.Event("late", 0, "after terminal")
	if n := j.Terminals(); n != 1 {
		t.Fatalf("terminals = %d, want 1", n)
	}
	if j.Outcome() != OutcomeCompleted {
		t.Fatalf("outcome = %v, want the first Finish to win", j.Outcome())
	}
	evs := j.Events()
	if last := evs[len(evs)-1]; last.Kind != "end:completed" {
		t.Fatalf("last event = %q, want the terminal; post-terminal events must drop", last.Kind)
	}
	if c := r.Counts(); c.TerminalDups != 1 {
		t.Fatalf("dup terminal counter = %d, want 1", c.TerminalDups)
	}
}

func TestJourneyEventBufferReservesTerminalSlot(t *testing.T) {
	clock, _ := mkClock()
	r := New(Config{MaxEvents: 4, Clock: clock})
	j := r.Begin("t", "k", time.Time{}, 0)
	for i := 0; i < 10; i++ {
		j.Event("spam", 0, "")
	}
	j.Finish(OutcomeCompleted, "")
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want MaxEvents 4", len(evs))
	}
	if evs[len(evs)-1].Kind != "end:completed" {
		t.Fatalf("terminal missing from a truncated journey: %v", evs)
	}
	if v := j.View(); v.Truncated != 7 {
		t.Fatalf("truncated = %d, want 7 dropped spam events", v.Truncated)
	}
}

func TestBurnRateTracksBadFraction(t *testing.T) {
	clock, advance := mkClock()
	r := New(Config{BurnWindows: []time.Duration{10 * time.Second}, BurnBudget: 0.05, Clock: clock})
	// 20 resolutions, 2 bad: bad fraction 0.1 = 2x the 5% budget.
	for i := 0; i < 20; i++ {
		j := r.Begin("gold", "k", clock().Add(time.Second), time.Second)
		advance(10 * time.Millisecond)
		if i < 2 {
			j.Finish(OutcomeExpired, "")
		} else {
			j.Finish(OutcomeCompleted, "")
		}
	}
	got := r.BurnRate("gold", 10*time.Second)
	if got < 1.9 || got > 2.1 {
		t.Fatalf("burn rate = %.3f, want ~2.0", got)
	}
	if all := r.BurnRate("", 10*time.Second); all < 1.9 || all > 2.1 {
		t.Fatalf("aggregate burn rate = %.3f, want ~2.0", all)
	}
	if other := r.BurnRate("silver", 10*time.Second); other != 0 {
		t.Fatalf("unseen tenant burn = %.3f, want 0", other)
	}
}

func TestIncidentTriggerCooldownAndSnapshot(t *testing.T) {
	clock, advance := mkClock()
	r := New(Config{IncidentCooldown: time.Second, Clock: clock})
	r.AddSnapshot("fleet-cards", func() any { return map[string]any{"cards": 2} })
	j := r.Begin("gold", "k", time.Time{}, 0)
	j.Finish(OutcomeFaulted, "")
	r.Trigger("breaker-open", map[string]any{"card": 1})
	r.Trigger("breaker-open", map[string]any{"card": 1}) // within cooldown: suppressed
	advance(2 * time.Second)
	r.Trigger("breaker-open", map[string]any{"card": 1})
	incs := r.Incidents()
	if len(incs) != 2 {
		t.Fatalf("incidents = %d, want 2 (cooldown swallows the middle one)", len(incs))
	}
	newest := incs[0]
	if newest.Kind != "breaker-open" || newest.Fields["card"] != 1 {
		t.Fatalf("incident = %+v", newest)
	}
	if len(newest.Journeys) != 1 || newest.Journeys[0].Outcome != "faulted" {
		t.Fatalf("incident journeys = %+v, want the kept faulted journey", newest.Journeys)
	}
	snap, ok := newest.Snapshots["fleet-cards"].(map[string]any)
	if !ok || snap["cards"] != 2 {
		t.Fatalf("incident snapshot = %+v", newest.Snapshots)
	}
	var buf bytes.Buffer
	if err := r.WriteIncidents(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Total     int64            `json:"total"`
		Incidents []map[string]any `json:"incidents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteIncidents not JSON: %v", err)
	}
	if doc.Total != 2 || len(doc.Incidents) != 2 {
		t.Fatalf("incident doc = total %d len %d", doc.Total, len(doc.Incidents))
	}
}

func TestShedStormAutoTriggersNamedIncident(t *testing.T) {
	clock, advance := mkClock()
	r := New(Config{StormThreshold: 10, Clock: clock})
	// Bronze sheds off card 1 dominate the window.
	for i := 0; i < 12; i++ {
		tenant, card := "bronze", 1
		if i%4 == 0 {
			tenant, card = "gold", 0
		}
		j := r.Begin(tenant, "k", clock().Add(time.Second), time.Second)
		j.Event("route", card, "home")
		j.Finish(OutcomeShedOverload, "")
		advance(time.Millisecond)
	}
	incs := r.Incidents()
	if len(incs) == 0 {
		t.Fatal("no shed-storm incident auto-triggered")
	}
	inc := incs[len(incs)-1] // oldest = the one that crossed the threshold
	if inc.Kind != "shed-storm" {
		t.Fatalf("incident kind = %q", inc.Kind)
	}
	if inc.Fields["tenant"] != "bronze" || inc.Fields["card"] != 1 {
		t.Fatalf("storm incident must name the dominant tenant and card: %+v", inc.Fields)
	}
}

func TestWriteJourneysShape(t *testing.T) {
	clock, advance := mkClock()
	r := New(Config{SampleN: 1, Clock: clock})
	j := r.Begin("gold", "rsa-512", clock().Add(time.Second), time.Second)
	j.Event("route", 0, "home")
	advance(3 * time.Millisecond)
	j.Finish(OutcomeCompleted, "fill=16")
	var buf bytes.Buffer
	if err := r.WriteJourneys(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Resolved int64 `json:"resolved"`
		SampleN  int   `json:"sample_n"`
		Journeys []struct {
			Tenant  string `json:"tenant"`
			Outcome string `json:"outcome"`
			Events  []struct {
				TUS  float64 `json:"t_us"`
				Kind string  `json:"kind"`
			} `json:"events"`
		} `json:"journeys"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJourneys not JSON: %v", err)
	}
	if doc.Resolved != 1 || doc.SampleN != 1 || len(doc.Journeys) != 1 {
		t.Fatalf("journeys doc = %+v", doc)
	}
	jv := doc.Journeys[0]
	if jv.Tenant != "gold" || jv.Outcome != "completed" {
		t.Fatalf("journey view = %+v", jv)
	}
	for i := 1; i < len(jv.Events); i++ {
		if jv.Events[i].TUS < jv.Events[i-1].TUS {
			t.Fatalf("event times not monotone: %+v", jv.Events)
		}
	}
}
