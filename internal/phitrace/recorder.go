package phitrace

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"phiopenssl/internal/telemetry"
)

// Config tunes a Recorder. The zero value selects sensible defaults; a
// field set to a negative value disables that feature where noted.
type Config struct {
	// RingSize bounds the kept-journey ring (default 256).
	RingSize int
	// SampleN keeps 1-in-N normal completions; anomalous journeys are
	// always kept. 1 keeps everything (default 16).
	SampleN int
	// MaxEvents bounds each journey's event list, which grows on demand;
	// the last slot is reserved for the terminal event (default 32).
	MaxEvents int
	// SLOFraction marks a completion anomalous ("slow") when its latency
	// exceeds this fraction of its SLO (default 0.8).
	SLOFraction float64
	// BurnWindows are the rotating windows the per-tenant SLO burn rate
	// is computed over; the first is the fast window the brownout loop
	// and the shed-storm detector consult (default 10s, 60s).
	BurnWindows []time.Duration
	// BurnBudget is the SLO error budget: the bad-request fraction at
	// which the burn rate reads 1.0 (default 0.05).
	BurnBudget float64
	// IncidentCooldown suppresses repeat triggers of the same incident
	// kind (default 1s).
	IncidentCooldown time.Duration
	// StormThreshold auto-triggers a "shed-storm" incident when this
	// many sheds land within the fast burn window (default 64; negative
	// disables).
	StormThreshold int
	// Clock supplies time (default time.Now); the virtual-time models
	// replace it.
	Clock func() time.Time
	// Telemetry, when set, receives phitrace_* counters and the lazily
	// registered phitrace_slo_burn{tenant,window} gauges; its tracer, when
	// set, receives every kept journey as one async request span (keyed by
	// the journey id) and every incident as an instant. Use one Recorder
	// per registry — the metric names are not label-qualified per
	// recorder, and journey ids are unique only within a recorder.
	Telemetry *telemetry.Telemetry
	// OnResolve, when set, observes every resolved journey (kept or
	// not) — the observe hammer's capture hook. Called outside the
	// recorder lock.
	OnResolve func(*Journey)
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	if c.SampleN <= 0 {
		c.SampleN = 16
	}
	if c.MaxEvents <= 1 {
		c.MaxEvents = 32
	}
	if c.SLOFraction <= 0 {
		c.SLOFraction = 0.8
	}
	if len(c.BurnWindows) == 0 {
		c.BurnWindows = []time.Duration{10 * time.Second, time.Minute}
	}
	if c.BurnBudget <= 0 {
		c.BurnBudget = 0.05
	}
	if c.IncidentCooldown <= 0 {
		c.IncidentCooldown = time.Second
	}
	if c.StormThreshold == 0 {
		c.StormThreshold = 64
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// burnBuckets is the rotation granularity of each burn window: the rate
// is computed over 16 sub-buckets so it decays smoothly instead of
// resetting at window edges.
const burnBuckets = 16

type burnCell struct{ total, bad int64 }

type burnWindow struct {
	width     time.Duration
	bucket    time.Duration
	cells     [burnBuckets]burnCell
	head      int
	headStart time.Time
}

func newBurnWindow(width time.Duration) *burnWindow {
	return &burnWindow{width: width, bucket: width / burnBuckets}
}

// advance rotates the window forward to at. Time moving backwards (a
// completion stamped before the latest arrival in a virtual-time model)
// lands in the current head bucket, which is close enough for a gauge.
func (w *burnWindow) advance(at time.Time) {
	if w.headStart.IsZero() {
		w.headStart = at
		return
	}
	steps := int(at.Sub(w.headStart) / w.bucket)
	if steps <= 0 {
		return
	}
	if steps >= burnBuckets {
		w.cells = [burnBuckets]burnCell{}
		w.head = 0
		w.headStart = at
		return
	}
	for i := 0; i < steps; i++ {
		w.head = (w.head + 1) % burnBuckets
		w.cells[w.head] = burnCell{}
	}
	w.headStart = w.headStart.Add(time.Duration(steps) * w.bucket)
}

func (w *burnWindow) account(at time.Time, bad bool) {
	w.advance(at)
	w.cells[w.head].total++
	if bad {
		w.cells[w.head].bad++
	}
}

func (w *burnWindow) rate(at time.Time, budget float64) float64 {
	w.advance(at)
	var total, bad int64
	for _, c := range w.cells {
		total += c.total
		bad += c.bad
	}
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total) / budget
}

type tenantBurn struct {
	windows []*burnWindow
}

type stormShed struct {
	at     time.Time
	tenant string
	card   int
}

// Recorder begins, samples and serves journeys. One Recorder is shared by
// the whole stack (door, fleet, cards): journeys carry their recorder, so
// a request stolen to another card still resolves into the same ring.
type Recorder struct {
	cfg Config
	seq atomic.Uint64

	nResolved    atomic.Int64
	nKeptAnom    atomic.Int64
	nKeptSampled atomic.Int64
	nDiscarded   atomic.Int64
	nDupTerminal atomic.Int64
	nIncidents   atomic.Int64

	mu          sync.Mutex
	ring        []*Journey
	ringHead    int
	ringLen     int
	burn        map[string]*tenantBurn // key "" aggregates all tenants
	storm       []stormShed
	incidents   []Incident
	incHead     int
	incLen      int
	lastTrigger map[string]time.Time
	snapNames   []string
	snapFns     []func() any

	gaugeMu    sync.Mutex
	burnGauged map[string]bool
}

// New returns a Recorder. Register at most one Recorder per telemetry
// registry (the phitrace_* metric names are registered once).
func New(cfg Config) *Recorder {
	r := &Recorder{
		cfg:         cfg.withDefaults(),
		burn:        make(map[string]*tenantBurn),
		lastTrigger: make(map[string]time.Time),
		burnGauged:  make(map[string]bool),
	}
	r.ring = make([]*Journey, r.cfg.RingSize)
	r.incidents = make([]Incident, maxIncidents)
	reg := r.cfg.Telemetry.Reg()
	load := func(a *atomic.Int64) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}
	reg.CounterFunc("phitrace_journeys_resolved_total",
		"journeys resolved with a terminal outcome", load(&r.nResolved))
	reg.CounterFunc("phitrace_journeys_kept_total",
		"journeys kept by tail sampling", load(&r.nKeptAnom), "class", "anomalous")
	reg.CounterFunc("phitrace_journeys_kept_total",
		"journeys kept by tail sampling", load(&r.nKeptSampled), "class", "sampled")
	reg.CounterFunc("phitrace_journeys_discarded_total",
		"normal journeys discarded by 1-in-N sampling", load(&r.nDiscarded))
	reg.CounterFunc("phitrace_journey_terminal_dup_total",
		"duplicate terminal events dropped (should stay 0)", load(&r.nDupTerminal))
	reg.CounterFunc("phitrace_incidents_total",
		"incident snapshots captured by the flight recorder", load(&r.nIncidents))
	r.ensureBurnGauges("")
	return r
}

func (r *Recorder) now() time.Time {
	if r == nil {
		return time.Now()
	}
	return r.cfg.Clock()
}

// FastWindow returns the first (fast) burn window — what the brownout
// loop polls.
func (r *Recorder) FastWindow() time.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.BurnWindows[0]
}

// BeginWork starts a journey tagged with its canonical workload kind
// (the phiwork.Kind vocabulary: "rsa-priv", "dhe-fixed", "dhe-var",
// "pss-sign", "public"); the tag rides into the /journeys view and
// incident snapshots. Safe on nil (returns a nil journey, whose methods
// are all no-ops).
func (r *Recorder) BeginWork(tenant, key, workload string, deadline time.Time, slo time.Duration) *Journey {
	if r == nil {
		return nil
	}
	return r.BeginWorkAt(r.now(), tenant, key, workload, deadline, slo)
}

// initialEvents is how many events a journey stores inline. A clean
// request records six to eight steps, so most journeys are one
// allocation; a chatty one (retries, steals) grows by append up to
// Config.MaxEvents.
const initialEvents = 8

// BeginWorkAt is BeginWork at an explicit (virtual) time.
func (r *Recorder) BeginWorkAt(at time.Time, tenant, key, workload string, deadline time.Time, slo time.Duration) *Journey {
	if r == nil {
		return nil
	}
	j := &Journey{
		id:       r.seq.Add(1),
		tenant:   tenant,
		key:      key,
		workload: workload,
		rec:      r,
		start:    at,
		deadline: deadline,
		slo:      slo,
		card:     -1,
	}
	j.events = j.inline[:0]
	return j
}

func (r *Recorder) duplicateTerminal() {
	if r == nil {
		return
	}
	r.nDupTerminal.Add(1)
}

// resolve is the tail-sampling sink every journey lands in exactly once.
func (r *Recorder) resolve(j *Journey, at time.Time, anomaly string) {
	if r == nil {
		return
	}
	r.nResolved.Add(1)
	j.mu.Lock()
	tenant, card, outcome := j.tenant, j.card, j.outcome
	bad := outcome != OutcomeCompleted || (j.slo > 0 && at.Sub(j.start) > j.slo)
	j.mu.Unlock()
	keep := anomaly != "" || r.cfg.SampleN == 1 || j.id%uint64(r.cfg.SampleN) == 0

	r.mu.Lock()
	r.accountBurnLocked("", at, bad)
	if tenant != "" {
		r.accountBurnLocked(tenant, at, bad)
	}
	if keep {
		r.ring[r.ringHead] = j
		r.ringHead = (r.ringHead + 1) % len(r.ring)
		if r.ringLen < len(r.ring) {
			r.ringLen++
		}
	}
	var stormFields map[string]any
	if outcome.Shed() {
		stormFields = r.noteShedLocked(at, tenant, card)
	}
	r.mu.Unlock()

	switch {
	case keep && anomaly != "":
		r.nKeptAnom.Add(1)
	case keep:
		r.nKeptSampled.Add(1)
	default:
		r.nDiscarded.Add(1)
	}
	if tenant != "" {
		r.ensureBurnGauges(tenant)
	}
	if keep {
		j.writeSpan(r.cfg.Telemetry.Trace())
	}
	if stormFields != nil {
		r.TriggerAt(at, "shed-storm", stormFields)
	}
	if fn := r.cfg.OnResolve; fn != nil {
		fn(j)
	}
}

// accountBurnLocked charges one resolution to key's burn windows
// (key "" is the all-tenants aggregate). Caller holds r.mu.
func (r *Recorder) accountBurnLocked(key string, at time.Time, bad bool) {
	tb := r.burn[key]
	if tb == nil {
		tb = &tenantBurn{}
		for _, w := range r.cfg.BurnWindows {
			tb.windows = append(tb.windows, newBurnWindow(w))
		}
		r.burn[key] = tb
	}
	for _, w := range tb.windows {
		w.account(at, bad)
	}
}

// noteShedLocked tracks recent sheds and, past StormThreshold within the
// fast window, returns the fields for an auto-triggered shed-storm
// incident naming the dominant tenant and card. Caller holds r.mu.
func (r *Recorder) noteShedLocked(at time.Time, tenant string, card int) map[string]any {
	if r.cfg.StormThreshold < 0 {
		return nil
	}
	win := r.cfg.BurnWindows[0]
	r.storm = append(r.storm, stormShed{at: at, tenant: tenant, card: card})
	cut := 0
	for cut < len(r.storm) && at.Sub(r.storm[cut].at) > win {
		cut++
	}
	if cut > 0 {
		r.storm = append(r.storm[:0], r.storm[cut:]...)
	}
	if len(r.storm) < r.cfg.StormThreshold {
		return nil
	}
	if last, ok := r.lastTrigger["shed-storm"]; ok && at.Sub(last) < r.cfg.IncidentCooldown {
		return nil
	}
	tenants := map[string]int{}
	cards := map[int]int{}
	for _, s := range r.storm {
		tenants[s.tenant]++
		cards[s.card]++
	}
	topTenant, tn := "", -1
	for t, n := range tenants {
		if n > tn || (n == tn && t < topTenant) {
			topTenant, tn = t, n
		}
	}
	topCard, cn := -1, -1
	for c, n := range cards {
		if n > cn || (n == cn && c < topCard) {
			topCard, cn = c, n
		}
	}
	return map[string]any{
		"tenant":          topTenant,
		"tenant_sheds":    tn,
		"card":            topCard,
		"card_sheds":      cn,
		"sheds_in_window": len(r.storm),
		"window":          win.String(),
	}
}

// ensureBurnGauges registers phitrace_slo_burn{tenant,window} gauges for a
// tenant the first time it is seen. Runs outside r.mu: the gauge closures
// take r.mu, and the registry lock is held while exposition calls them.
func (r *Recorder) ensureBurnGauges(tenant string) {
	reg := r.cfg.Telemetry.Reg()
	if reg == nil {
		return
	}
	r.gaugeMu.Lock()
	done := r.burnGauged[tenant]
	r.burnGauged[tenant] = true
	r.gaugeMu.Unlock()
	if done {
		return
	}
	label := tenant
	if label == "" {
		label = "_all"
	}
	for _, w := range r.cfg.BurnWindows {
		w := w
		reg.GaugeFunc("phitrace_slo_burn",
			"per-tenant SLO burn rate (bad-request fraction over the window, divided by the error budget)",
			func() float64 { return r.BurnRate(tenant, w) },
			"tenant", label, "window", w.String())
	}
}

// BurnRate returns the SLO burn rate for a tenant over the burn window
// closest to window ("" = the all-tenants aggregate). 1.0 means the error
// budget is being consumed exactly at the sustainable rate; a 4x overload
// shed storm reads an order of magnitude higher.
func (r *Recorder) BurnRate(tenant string, window time.Duration) float64 {
	if r == nil {
		return 0
	}
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	tb := r.burn[tenant]
	if tb == nil {
		return 0
	}
	best := 0
	for i, w := range tb.windows {
		if absDur(w.width-window) < absDur(tb.windows[best].width-window) {
			best = i
		}
	}
	return tb.windows[best].rate(at, r.cfg.BurnBudget)
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// Counts is a snapshot of the recorder's stream counters.
type Counts struct {
	Resolved      int64 `json:"resolved"`
	KeptAnomalous int64 `json:"kept_anomalous"`
	KeptSampled   int64 `json:"kept_sampled"`
	Discarded     int64 `json:"discarded"`
	TerminalDups  int64 `json:"terminal_dups"`
	Incidents     int64 `json:"incidents"`
}

// Counts returns the stream counters.
func (r *Recorder) Counts() Counts {
	if r == nil {
		return Counts{}
	}
	return Counts{
		Resolved:      r.nResolved.Load(),
		KeptAnomalous: r.nKeptAnom.Load(),
		KeptSampled:   r.nKeptSampled.Load(),
		Discarded:     r.nDiscarded.Load(),
		TerminalDups:  r.nDupTerminal.Load(),
		Incidents:     r.nIncidents.Load(),
	}
}

// Kept returns up to n of the most recently kept journeys, newest first
// (n <= 0 returns all).
func (r *Recorder) Kept(n int) []*Journey {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.keptLocked(n)
}

func (r *Recorder) keptLocked(n int) []*Journey {
	if n <= 0 || n > r.ringLen {
		n = r.ringLen
	}
	out := make([]*Journey, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.ring[(r.ringHead-1-i+len(r.ring))%len(r.ring)])
	}
	return out
}

// journeysDoc is the JSON served at /journeys.
type journeysDoc struct {
	Counts
	SampleN  int    `json:"sample_n"`
	Journeys []View `json:"journeys"`
}

// WriteJourneys writes the kept-journey ring (newest first) plus the
// stream counters as one JSON object. Safe on nil (empty document).
func (r *Recorder) WriteJourneys(w io.Writer) error {
	doc := journeysDoc{Journeys: []View{}}
	if r != nil {
		doc.Counts = r.Counts()
		doc.SampleN = r.cfg.SampleN
		for _, j := range r.Kept(0) {
			doc.Journeys = append(doc.Journeys, j.View())
		}
	}
	return json.NewEncoder(w).Encode(doc)
}
