package phitrace

import (
	"bytes"
	"encoding/json"
	"io"
	"time"

	"phiopenssl/internal/telemetry"
)

// Incident is one flight-recorder snapshot: the trigger, the recent kept
// journeys leading up to it, the per-tenant SLO burn at that moment, any
// registered component snapshots (e.g. per-card fleet stats), and a JSON
// sample of the metrics registry.
type Incident struct {
	Seq       int64                         `json:"seq"`
	At        time.Time                     `json:"at"`
	Kind      string                        `json:"kind"`
	Fields    map[string]any                `json:"fields,omitempty"`
	Burn      map[string]map[string]float64 `json:"slo_burn,omitempty"`
	Journeys  []View                        `json:"journeys"`
	Snapshots map[string]any                `json:"snapshots,omitempty"`
	Metrics   json.RawMessage               `json:"metrics,omitempty"`
}

// AddSnapshot registers a named provider whose value is captured into
// every subsequent incident — the fleet registers its per-card stats
// here. Providers run outside the recorder lock and must be safe to call
// from any goroutine.
func (r *Recorder) AddSnapshot(name string, fn func() any) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.snapNames = append(r.snapNames, name)
	r.snapFns = append(r.snapFns, fn)
	r.mu.Unlock()
}

// Trigger captures an incident of the given kind at the recorder's clock,
// subject to the per-kind cooldown. Trigger sites: breaker transitions,
// brownout enter/exit, whole-fleet degradation, retry-budget exhaustion,
// and the recorder's own shed-storm detector. Safe on nil. Trigger never
// calls back into the component that fired it, but it does snapshot the
// metrics registry and the registered providers, so callers holding a
// lock that a gauge or provider needs should trigger after releasing it
// (the breaker spawns a goroutine for exactly this reason).
func (r *Recorder) Trigger(kind string, fields map[string]any) {
	if r == nil {
		return
	}
	r.TriggerAt(r.now(), kind, fields)
}

// TriggerAt is Trigger at an explicit (virtual) time. Safe on nil.
func (r *Recorder) TriggerAt(at time.Time, kind string, fields map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if last, ok := r.lastTrigger[kind]; ok && at.Sub(last) < r.cfg.IncidentCooldown {
		r.mu.Unlock()
		return
	}
	r.lastTrigger[kind] = at
	recent := r.keptLocked(r.cfg.IncidentJourneys)
	burn := make(map[string]map[string]float64, len(r.burn))
	for tenant, tb := range r.burn {
		label := tenant
		if label == "" {
			label = "_all"
		}
		per := make(map[string]float64, len(tb.windows))
		for _, w := range tb.windows {
			per[w.width.String()] = w.rate(at, r.cfg.BurnBudget)
		}
		burn[label] = per
	}
	names := append([]string(nil), r.snapNames...)
	fns := append([]func() any(nil), r.snapFns...)
	r.mu.Unlock()

	inc := Incident{
		Seq:      r.nIncidents.Add(1),
		At:       at,
		Kind:     kind,
		Fields:   fields,
		Burn:     burn,
		Journeys: make([]View, 0, len(recent)),
	}
	for _, j := range recent {
		inc.Journeys = append(inc.Journeys, j.View())
	}
	if len(fns) > 0 {
		inc.Snapshots = make(map[string]any, len(fns))
		for i, fn := range fns {
			inc.Snapshots[names[i]] = fn()
		}
	}
	if reg := r.cfg.Telemetry.Reg(); reg != nil {
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err == nil {
			inc.Metrics = json.RawMessage(append([]byte(nil), buf.Bytes()...))
		}
	}
	r.cfg.Telemetry.Trace().Instant(0, "incident:"+kind, telemetry.Args{
		"seq": inc.Seq, "fields": fields,
	})

	r.mu.Lock()
	r.incidents[r.incHead] = inc
	r.incHead = (r.incHead + 1) % len(r.incidents)
	if r.incLen < len(r.incidents) {
		r.incLen++
	}
	r.mu.Unlock()
}

// Incidents returns the buffered incidents, newest first.
func (r *Recorder) Incidents() []Incident {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Incident, 0, r.incLen)
	for i := 0; i < r.incLen; i++ {
		out = append(out, r.incidents[(r.incHead-1-i+len(r.incidents))%len(r.incidents)])
	}
	return out
}

// incidentsDoc is the JSON served at /incidents.
type incidentsDoc struct {
	Total     int64      `json:"total"`
	Incidents []Incident `json:"incidents"`
}

// WriteIncidents writes the incident buffer (newest first) as one JSON
// object; Total counts every incident ever captured, including ones the
// bounded buffer has since overwritten. Safe on nil (empty document).
func (r *Recorder) WriteIncidents(w io.Writer) error {
	doc := incidentsDoc{Incidents: []Incident{}}
	if r != nil {
		doc.Total = r.nIncidents.Load()
		doc.Incidents = r.Incidents()
	}
	return json.NewEncoder(w).Encode(doc)
}
