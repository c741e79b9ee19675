// Package phiadmit is the SLO-aware admission layer in front of the batch
// server (phiserve.Server) and the multi-card fleet (phifleet.Fleet). The
// serving tiers below it admit everything they are handed; past saturation
// that is the classic metastable-overload failure — queues grow without
// bound, every request waits longer than its deadline, and goodput
// collapses to zero even though the cards are running flat out. The
// controller keeps the system on the good side of that cliff with three
// mechanisms, all fed by the telemetry the serving tier already exports:
//
//   - Deadline attachment: every admitted request carries an absolute SLO
//     deadline (tenant-specific) in its phiserve.SubmitOpts, so a lane that
//     expires while queued is dropped at the next checkpoint instead of
//     burning a kernel pass on an answer nobody is waiting for.
//   - Door shedding: when the backend's sojourn estimate (queue depth ×
//     recent per-batch service time, see phiserve.EstimatedDelay) exceeds
//     the request's whole budget, admitting it cannot possibly meet the
//     SLO — the controller rejects with ErrShedOverload immediately, which
//     costs the client one RTT instead of one timed-out deadline.
//   - Brownout fairness: a hysteretic brownout state (enter when the delay
//     estimate crosses BrownoutEnter, exit only below BrownoutExit, so
//     shedding stops cleanly instead of flapping) switches on per-tenant
//     weighted fair queuing: token buckets refilled in proportion to
//     tenant weight share the configured capacity, so one hot tenant
//     exhausts its own bucket (ErrShedTenant) while the others' traffic
//     still fits — lowest-weight tenants shed first because their buckets
//     are smallest.
//
// Those three decisions are one Door on an explicit clock; the Controller
// runs it on the host clock, and the virtual-time engine behind the
// serving experiments (internal/phisim) runs the same Door on simulated
// time.
//
// The fourth overload guard, the shared fault-retry budget, lives in
// phiserve.RetryBudget and is wired via Resilience.Budget or
// phifleet.Config.RetryBudget; see there.
package phiadmit

import (
	"context"
	"errors"
	"sync"
	"time"

	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phitrace"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/telemetry"
)

// Errors returned by Controller.SubmitWork.
var (
	// ErrShedOverload rejects a request whose SLO cannot be met: the
	// backend's delay estimate already exceeds the whole budget.
	ErrShedOverload = errors.New("phiadmit: shed, queue delay exceeds SLO budget")
	// ErrShedTenant rejects a request because its tenant's fair-queuing
	// bucket is empty during a brownout: the tenant is over its weighted
	// share while the system is overloaded.
	ErrShedTenant = errors.New("phiadmit: shed, tenant over fair share in brownout")
	// ErrWorkloadDenied rejects a request whose workload kind is outside
	// its tenant's declared allow-list.
	ErrWorkloadDenied = errors.New("phiadmit: workload kind not allowed for tenant")
)

// Backend is the serving tier the controller fronts. Both *phiserve.Server
// and *phifleet.Fleet satisfy it.
type Backend interface {
	SubmitWork(ctx context.Context, w phiwork.Workload, in phiwork.Input, opts phiserve.SubmitOpts) (<-chan phiserve.Result, error)
	EstimatedDelay() time.Duration
}

// Tenant is one traffic class.
type Tenant struct {
	// ID is the tenant identifier callers pass to SubmitWork.
	ID string
	// Weight is the tenant's share of Capacity during a brownout, relative
	// to the sum of all weights plus the implicit class's 1. <= 0 defaults
	// to 1.
	Weight float64
	// SLO overrides Config.SLO for this tenant's requests; zero inherits.
	SLO time.Duration
	// Workloads is the tenant's workload allow-list: the kinds this
	// tenant may submit (a CA tenant signs, a terminator tenant does DHE
	// and private ops, a verifier tenant only public ops). Empty means
	// every kind. Submissions outside the list shed with
	// ErrWorkloadDenied before any other admission decision.
	Workloads []phiwork.Kind
}

// Config parameterizes a Controller.
type Config struct {
	// SLO is the default per-request latency budget: an admitted request
	// gets deadline now+SLO. Defaults to 50ms.
	SLO time.Duration
	// Tenants declares the traffic classes. Requests naming an undeclared
	// tenant (or "") share one implicit weight-1 class.
	Tenants []Tenant
	// Capacity is the admission rate (requests/second) the tenant buckets
	// share during a brownout; tenant i refills at
	// Capacity*Weight_i/(ΣW+1), the +1 being the implicit class, and holds
	// 100ms of its rate (at least one token). <= 0 disables fair queuing —
	// brownout then only gates on the per-request overload shed.
	Capacity float64
	// BrownoutEnter is the backend delay estimate at which the controller
	// enters brownout (fair queuing switches on). Defaults to SLO/2.
	BrownoutEnter time.Duration
	// BrownoutExit is the estimate below which brownout ends. Must be
	// below BrownoutEnter (the gap is the hysteresis band that keeps the
	// controller from flapping at the threshold). Defaults to SLO/4.
	BrownoutExit time.Duration
	// Margin is the fraction of each request's budget held back as slack
	// for estimate error: admission requires estimate <= (1-Margin)*SLO.
	// The sojourn estimate is a point-in-time reading — between the door
	// decision and the batch's execution more work can seal ahead of it —
	// so admitting right up to the line lets the latency tail spill past
	// the SLO. Defaults to 0.2; negative disables the slack.
	Margin float64
	// Telemetry supplies the registry for the controller's metric set; nil
	// gets a private registry (Stats still works).
	Telemetry *telemetry.Telemetry
	// Journeys, when non-nil, makes the door the journey's starting point:
	// every SubmitWork begins a journey (tenant, SLO, deadline attached), sheds
	// resolve it immediately with the shed outcome, and admissions carry it
	// into the backend. The recorder's fleet-wide SLO burn rate also feeds
	// the brownout loop: brownout enters at a burn of 2 and exits only
	// once it is back to 1 or below. Brownout enter/exit transitions
	// trigger incident snapshots.
	Journeys *phitrace.Recorder
	// Clock overrides time.Now for deterministic tests; nil uses real time.
	Clock func() time.Time
}

// WithDefaults returns c with every zero field set to its default.
func (c Config) WithDefaults() Config {
	if c.SLO <= 0 {
		c.SLO = 50 * time.Millisecond
	}
	if c.BrownoutEnter <= 0 {
		c.BrownoutEnter = c.SLO / 2
	}
	if c.BrownoutExit <= 0 {
		c.BrownoutExit = c.BrownoutEnter / 2
	}
	if c.BrownoutExit >= c.BrownoutEnter {
		c.BrownoutExit = c.BrownoutEnter / 2
	}
	if c.Margin == 0 {
		c.Margin = 0.2
	}
	if c.Margin < 0 {
		c.Margin = 0
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// tenantState is one tenant's identity and accounting; the counters are
// guarded by the controller's mutex.
type tenantState struct {
	id     string
	door   int // the tenant's index in the Door
	weight float64
	slo    time.Duration
	// allowed is the workload allow-list as a set; nil means every kind.
	allowed map[phiwork.Kind]bool

	admitted, shedOverload, shedTenant, shedWorkload int64

	mAdmitted, mShedOverload, mShedTenant, mShedWorkload *telemetry.Counter
}

// allows reports whether the tenant may submit kind k.
func (t *tenantState) allows(k phiwork.Kind) bool {
	return t.allowed == nil || t.allowed[k]
}

// Controller is the admission front end. One controller guards one
// backend; SubmitWork is safe for concurrent use.
type Controller struct {
	cfg     Config
	backend Backend
	tel     *telemetry.Telemetry

	mu       sync.Mutex
	door     *Door
	tenants  map[string]*tenantState
	fallback *tenantState // undeclared tenants share this class
	enters   int64

	brownoutGauge *telemetry.Gauge
	brownoutCount *telemetry.Counter
	// byKind counts admissions per workload kind (otherKind catches
	// out-of-tree kinds); immutable after New.
	byKind    map[phiwork.Kind]*telemetry.Counter
	otherKind *telemetry.Counter
}

// New builds a controller in front of backend. The backend must already be
// constructed (it is Started and Closed by its owner, not the controller).
func New(backend Backend, cfg Config) *Controller {
	door := NewDoor(cfg)
	cfg = cfg.WithDefaults()
	tel := cfg.Telemetry
	if tel == nil || tel.Registry == nil {
		priv := telemetry.NewRegistry()
		if tel == nil {
			tel = &telemetry.Telemetry{Registry: priv}
		} else {
			tel = &telemetry.Telemetry{Registry: priv, Tracer: tel.Tracer}
		}
	}
	a := &Controller{
		cfg:     cfg,
		backend: backend,
		tel:     tel,
		door:    door,
		tenants: make(map[string]*tenantState),
		brownoutGauge: tel.Registry.Gauge("phiadmit_brownout",
			"1 while the controller is in brownout (fair queuing enforced)"),
		brownoutCount: tel.Registry.Counter("phiadmit_brownout_enters_total",
			"transitions into brownout"),
	}
	a.tel.Registry.GaugeFunc("phiadmit_delay_estimate_seconds",
		"backend sojourn estimate the door last sheds against",
		func() float64 { return backend.EstimatedDelay().Seconds() })
	for i, tn := range cfg.Tenants {
		a.tenants[tn.ID] = a.newTenant(tn.ID, i, weightOf(tn), tn.Workloads)
	}
	a.fallback = a.newTenant("_other", len(cfg.Tenants), 1, nil)
	// One admitted-counter row per canonical workload kind (pre-registered
	// so scrapes show zeros), plus a catch-all for out-of-tree kinds.
	a.byKind = make(map[phiwork.Kind]*telemetry.Counter, len(phiwork.Kinds())+1)
	mkKind := func(label string) *telemetry.Counter {
		return a.tel.Registry.Counter("phiadmit_workload_admitted_total",
			"requests admitted to the backend, by workload kind",
			"workload", label)
	}
	for _, k := range phiwork.Kinds() {
		a.byKind[k] = mkKind(string(k))
	}
	a.otherKind = mkKind("other")
	return a
}

func (a *Controller) newTenant(id string, door int, w float64, kinds []phiwork.Kind) *tenantState {
	var allowed map[phiwork.Kind]bool
	if len(kinds) > 0 {
		allowed = make(map[phiwork.Kind]bool, len(kinds))
		for _, k := range kinds {
			allowed[k] = true
		}
	}
	reg := a.tel.Registry
	return &tenantState{
		id:      id,
		door:    door,
		weight:  w,
		slo:     a.door.buckets[door].slo,
		allowed: allowed,
		mAdmitted: reg.Counter("phiadmit_admitted_total",
			"requests admitted to the backend", "tenant", id),
		mShedOverload: reg.Counter("phiadmit_shed_overload_total",
			"requests shed because the delay estimate exceeded their SLO budget",
			"tenant", id),
		mShedTenant: reg.Counter("phiadmit_shed_tenant_total",
			"requests shed by brownout fair queuing", "tenant", id),
		mShedWorkload: reg.Counter("phiadmit_shed_workload_total",
			"requests shed because the workload kind is outside the tenant allow-list",
			"tenant", id),
	}
}

// Telemetry returns the controller's telemetry bundle.
func (a *Controller) Telemetry() *telemetry.Telemetry { return a.tel }

// tenant resolves a tenant id to its state (the shared fallback class for
// undeclared ids). The tenants map is immutable after New, so the lookup
// itself needs no lock — only the tenantState fields do (a.mu).
func (a *Controller) tenant(id string) *tenantState {
	if t, ok := a.tenants[id]; ok {
		return t
	}
	return a.fallback
}

// SubmitWork admits or sheds one request of any workload kind for the
// named tenant. On admission the request enters the backend with deadline
// now+SLO (the tenant's SLO) and the tenant id attached, and the returned
// channel delivers exactly one Result. A shed returns ErrWorkloadDenied,
// ErrShedOverload or ErrShedTenant without touching the backend — the
// cheapest possible rejection.
func (a *Controller) SubmitWork(ctx context.Context, tenant string, w phiwork.Workload, in phiwork.Input) (<-chan phiserve.Result, error) {
	if w == nil {
		return nil, errors.New("phiadmit: nil workload")
	}
	now := a.cfg.Clock()
	est := a.backend.EstimatedDelay()
	ts := a.tenant(tenant) // map is immutable; no lock needed for the lookup

	// The journey starts at the door: even a shed request leaves a record
	// naming the tenant, the workload, the SLO and the estimate that
	// condemned it. The burn rate comes from the same journey stream, read
	// before the lock — the recorder has its own (finer) lock discipline.
	var burn float64
	var journey *phitrace.Journey
	if rec := a.cfg.Journeys; rec != nil {
		burn = rec.BurnRate("", rec.FastWindow())
		journey = rec.BeginWork(ts.id, w.Tag(), string(w.Kind()), now.Add(ts.slo), ts.slo)
		journey.Event("workload", -1, string(w.Kind()))
		journey.Event("door", -1, "est="+est.Round(time.Microsecond).String())
	}
	// The allow-list gate comes first: a denied kind is a configuration
	// violation, not a load signal, so it neither charges the tenant's
	// bucket nor counts toward overload shedding.
	if !ts.allows(w.Kind()) {
		a.mu.Lock()
		ts.shedWorkload++
		a.mu.Unlock()
		ts.mShedWorkload.Inc()
		journey.Finish(phitrace.OutcomeShedTenant, "workload denied: "+string(w.Kind()))
		return nil, ErrWorkloadDenied
	}

	a.mu.Lock()
	v := a.door.Decide(now, ts.door, est, burn)
	switch v.Transition {
	case "enter":
		a.enters++
		a.brownoutGauge.Set(1)
		a.brownoutCount.Inc()
	case "exit":
		a.brownoutGauge.Set(0)
	}
	switch v.Shed {
	case ErrShedOverload:
		ts.shedOverload++
	case ErrShedTenant:
		ts.shedTenant++
	}
	a.mu.Unlock()
	switch v.Shed {
	case ErrShedOverload:
		ts.mShedOverload.Inc()
		if journey != nil {
			journey.Finish(phitrace.OutcomeShedOverload, "est="+est.Round(time.Microsecond).String())
		}
	case ErrShedTenant:
		ts.mShedTenant.Inc()
		journey.Finish(phitrace.OutcomeShedTenant, "brownout fair queue")
	}
	a.noteBrownout(v.Transition, est, burn)
	if v.Shed != nil {
		return nil, v.Shed
	}

	ch, err := a.backend.SubmitWork(ctx, w, in, phiserve.SubmitOpts{
		Tenant:   ts.id,
		Deadline: now.Add(ts.slo),
		Journey:  journey,
	})
	if err != nil {
		// The backend refused (closed, canceled, its own shed): the
		// request never entered, so the token it was charged comes back.
		if v.Charged {
			a.mu.Lock()
			a.door.Refund(ts.door)
			a.mu.Unlock()
		}
		journey.Finish(phiserve.JourneyOutcome(err), err.Error())
		return nil, err
	}
	a.mu.Lock()
	ts.admitted++
	a.mu.Unlock()
	ts.mAdmitted.Inc()
	if m, ok := a.byKind[w.Kind()]; ok {
		m.Inc()
	} else {
		a.otherKind.Inc()
	}
	return ch, nil
}

// noteBrownout triggers the brownout incident snapshot after a.mu is
// released — the trigger samples the whole registry, and exposition calls
// gauge closures that may take other locks.
func (a *Controller) noteBrownout(transition string, est time.Duration, burn float64) {
	if transition == "" || a.cfg.Journeys == nil {
		return
	}
	a.cfg.Journeys.Trigger("brownout-"+transition, map[string]any{
		"est_ms": float64(est) / float64(time.Millisecond),
		"burn":   burn,
	})
}

// DoWork is the synchronous convenience wrapper over SubmitWork.
func (a *Controller) DoWork(ctx context.Context, tenant string, w phiwork.Workload, in phiwork.Input) (phiserve.Result, error) {
	ch, err := a.SubmitWork(ctx, tenant, w, in)
	if err != nil {
		return phiserve.Result{}, err
	}
	select {
	case res := <-ch:
		return res, nil
	case <-ctx.Done():
		return phiserve.Result{}, ctx.Err()
	}
}

// TenantStats is one tenant's admission accounting.
type TenantStats struct {
	ID                                               string
	Weight                                           float64
	Admitted, ShedOverload, ShedTenant, ShedWorkload int64
}

// Stats is a snapshot of the controller's admission decisions.
type Stats struct {
	// Brownout reports whether fair queuing is currently enforced.
	Brownout bool
	// BrownoutEnters counts transitions into brownout.
	BrownoutEnters int64
	// Tenants lists per-tenant accounting in declaration order, with the
	// implicit "_other" class last.
	Tenants []TenantStats
	// Admitted / Shed are the totals across tenants.
	Admitted, Shed int64
}

// Stats snapshots the controller.
func (a *Controller) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Stats{Brownout: a.door.brownout, BrownoutEnters: a.enters}
	add := func(t *tenantState) {
		st.Tenants = append(st.Tenants, TenantStats{
			ID: t.id, Weight: t.weight,
			Admitted: t.admitted, ShedOverload: t.shedOverload,
			ShedTenant: t.shedTenant, ShedWorkload: t.shedWorkload,
		})
		st.Admitted += t.admitted
		st.Shed += t.shedOverload + t.shedTenant + t.shedWorkload
	}
	for _, tn := range a.cfg.Tenants {
		add(a.tenants[tn.ID])
	}
	add(a.fallback)
	return st
}
