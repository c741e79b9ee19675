// Package phifleet serves one host's traffic across a fleet of simulated
// coprocessor cards. The PhiOpenSSL paper's deployment premise is a host
// driving multiple Xeon Phi cards; phifleet is that tier: N independent
// phiserve.Servers — each with its own worker pool, circuit breaker,
// resilience policy and fault schedule — behind one SubmitWork front end.
//
// Routing is consistent hashing of the key over a vnode ring, so a key's
// open batch accumulates on one card and fills. Three mechanisms keep the
// fleet from degenerating into N isolated servers:
//
//   - Hot-key replication: a key arriving faster than one full batch per
//     fill deadline stops benefiting from single-card affinity (its batch
//     fills before the deadline regardless), so its traffic spreads
//     round-robin over the first Replicas cards of its hash order.
//   - Work stealing: a card hands deadline-fired partial batches and
//     fault-retried lanes to the least-loaded healthy sibling through the
//     phiserve redispatch hook, so no card runs a 3-lane pass while
//     another has work queued 13 deep.
//   - Breaker failover: while a card's breaker is open, SubmitWork routes its
//     keys to the next healthy card in hash order, and the sick card's
//     own scheduler offers breaker-bypassed requests to siblings; only
//     with every card degraded does traffic fall to the scalar path.
//
// Every card registers its metrics on one shared telemetry registry under
// a card="i" label, so /metrics exposes per-card series side by side and
// Stats presents both the per-card and the fleet-aggregate view.
package phifleet

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phiopenssl/internal/faultsim"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phitrace"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/telemetry"
)

// cardSeedOffset separates per-card fault seed streams from the
// per-worker streams each card derives internally.
const cardSeedOffset = 0x70686966 // "phif"

// Config parameterizes a Fleet.
type Config struct {
	// Cards is the number of card backends. Defaults to 2.
	Cards int
	// Card is the per-card server configuration template. Card, Labels,
	// Telemetry, Journeys and Redispatch are owned by the fleet and
	// overwritten; fault seeds are re-derived per card so sibling cards
	// are independent fault domains.
	Card phiserve.Config
	// CardFaults, when non-nil, overrides Card.Resilience.Faults per
	// card: CardFaults[i] (nil entries keep the template) is card i's
	// fault schedule, used verbatim — no per-card reseeding. This is how
	// tests and the fault experiments make exactly one card sick.
	CardFaults []*faultsim.Config
	// Replicas is how many cards a hot key spreads over (clamped to
	// Cards). Defaults to 2.
	Replicas int
	// MaxHops bounds how many times work stealing may move one request
	// between cards. Defaults to 3.
	MaxHops int
	// RetryBudget, when non-nil, is shared by every card's resilience
	// policy (it overwrites Card.Resilience.Budget): fault retries and
	// stall re-dispatches across the whole fleet draw on one bucket funded
	// by fleet-wide completions, so a sick card's recovery traffic is
	// capped globally and cannot amplify an overload.
	RetryBudget *phiserve.RetryBudget
	// Telemetry is the shared observability bundle. Nil gets a private
	// registry (Stats still works), like phiserve.
	Telemetry *telemetry.Telemetry
	// Journeys, when non-nil, records request journeys: the router begins
	// a journey for any submission that does not already carry one, stamps
	// a "route" event naming the picked card and why (home affinity, hot
	// spread, failover, delay reroute), and every card inherits the
	// recorder so seal/pass/steal/retry events land on the same record. A
	// fleet-degraded transition (no healthy card to route or steal to)
	// triggers an incident snapshot with the per-card stats attached.
	Journeys *phitrace.Recorder
}

func (c Config) withDefaults() Config {
	if c.Cards < 1 {
		c.Cards = 2
	}
	if c.Replicas < 1 {
		c.Replicas = 2
	}
	if c.Replicas > c.Cards {
		c.Replicas = c.Cards
	}
	if c.MaxHops < 1 {
		c.MaxHops = 3
	}
	return c
}

// Fleet is the multi-card front end. It mirrors *phiserve.Server:
// SubmitWork/DoWork/Start/Close/Stats have the same shapes, so callers
// (the batchserver example, the facade) switch between one card and a
// fleet without restructuring.
type Fleet struct {
	cfg   Config
	cards []*phiserve.Server
	ring  *ring
	hot   *hotTracker
	tel   *telemetry.Telemetry

	mu      sync.Mutex
	started bool
	closed  bool

	rr atomic.Int64 // round-robin cursor for hot-key spreading

	redispatched [3]*telemetry.Counter // by StealReason
	declined     *telemetry.Counter
	failovers    *telemetry.Counter
	hotRouted    *telemetry.Counter
	delayRouted  *telemetry.Counter
}

// New validates cfg and builds a stopped fleet; call Start before
// SubmitWork.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	tel := cfg.Telemetry
	if tel == nil || tel.Registry == nil {
		priv := telemetry.NewRegistry()
		if tel == nil {
			tel = &telemetry.Telemetry{Registry: priv}
		} else {
			tel = &telemetry.Telemetry{Registry: priv, Tracer: tel.Tracer}
		}
	}
	f := &Fleet{
		cfg:  cfg,
		ring: newRing(cfg.Cards),
		tel:  tel,
	}
	for reason := phiserve.StealPartialDeadline; reason <= phiserve.StealDegraded; reason++ {
		f.redispatched[reason] = tel.Registry.Counter("phifleet_redispatch_total",
			"lanes moved between cards by work stealing",
			"reason", reason.String())
	}
	f.declined = tel.Registry.Counter("phifleet_redispatch_declined_total",
		"steal offers the router declined (no better card, or hop budget spent)")
	f.failovers = tel.Registry.Counter("phifleet_failovers_total",
		"submissions routed past a degraded card to a healthy sibling")
	f.hotRouted = tel.Registry.Counter("phifleet_hot_routed_total",
		"submissions spread over replicas because their key ran hot")
	f.delayRouted = tel.Registry.Counter("phifleet_delay_routed_total",
		"deadline submissions rerouted past a card whose delay estimate would blow their budget")

	if rec := cfg.Journeys; rec != nil {
		rec.AddSnapshot("fleet-cards", func() any {
			st := f.Stats()
			type cardBrief struct {
				Card      int    `json:"card"`
				Breaker   string `json:"breaker"`
				Submitted int64  `json:"submitted"`
				Completed int64  `json:"completed"`
				Failed    int64  `json:"failed"`
				Expired   int64  `json:"expired"`
				Stolen    int64  `json:"stolen"`
				Adopted   int64  `json:"adopted"`
				Load      int    `json:"load"`
			}
			briefs := make([]cardBrief, 0, len(f.cards))
			for i, cs := range st.Cards {
				briefs = append(briefs, cardBrief{
					Card: i, Breaker: cs.BreakerState,
					Submitted: cs.Submitted, Completed: cs.Completed,
					Failed: cs.Failed, Expired: cs.ExpiredLanes,
					Stolen: cs.StolenLanes, Adopted: cs.AdoptedLanes,
					Load: f.cards[i].Load(),
				})
			}
			return map[string]any{
				"cards":        briefs,
				"redispatched": st.Redispatched,
				"declined":     st.Declined,
				"failovers":    st.Failovers,
				"hot_routed":   st.HotRouted,
			}
		})
	}
	for i := 0; i < cfg.Cards; i++ {
		cc := cfg.Card
		cc.Telemetry = tel
		cc.Journeys = cfg.Journeys
		cc.Card = i
		cc.Labels = append(append([]string(nil), cfg.Card.Labels...),
			"card", strconv.Itoa(i))
		if cfg.RetryBudget != nil {
			cc.Resilience.Budget = cfg.RetryBudget
		}
		if i < len(cfg.CardFaults) && cfg.CardFaults[i] != nil {
			cc.Resilience.Faults = cfg.CardFaults[i]
		} else if base := cc.Resilience.Faults; base != nil {
			// Each card draws its own fault schedule: real cards fail
			// independently, and independent domains are what makes
			// cross-card retry worth anything.
			derived := base.ForWorker(cardSeedOffset + i)
			cc.Resilience.Faults = &derived
		}
		// The hook closes over f; by the time any card can invoke it
		// (after Start) f.cards is fully populated.
		cc.Redispatch = f.hook(i)
		card, err := phiserve.New(cc)
		if err != nil {
			return nil, fmt.Errorf("phifleet: card %d: %w", i, err)
		}
		f.cards = append(f.cards, card)
	}
	return f, nil
}

// hook returns card i's redispatch function. It runs on card i's
// scheduler or worker goroutines, so it must never block on card i; Adopt
// on a sibling is non-blocking.
func (f *Fleet) hook(donor int) phiserve.RedispatchFunc {
	return func(w phiwork.Workload, ops []phiserve.StolenOp, reason phiserve.StealReason) int {
		// Only the prefix within its hop budget is movable (the hook
		// contract is front-of-slice).
		n := 0
		for n < len(ops) && ops[n].Hops() < f.cfg.MaxHops {
			n++
		}
		if n == 0 {
			f.declined.Inc()
			return 0
		}
		target, load := -1, 0
		for j, c := range f.cards {
			if j == donor || c.Degraded() {
				continue
			}
			if l := c.Load(); target == -1 || l < load {
				target, load = j, l
			}
		}
		if target == -1 {
			// Whole fleet degraded (or single card): the donor serves it,
			// falling back to scalar if its own breaker is open.
			f.declined.Inc()
			f.noteFleetDegraded(donor, reason.String())
			return 0
		}
		if reason == phiserve.StealPartialDeadline && load+n >= f.cards[donor].Load() {
			// A partial batch only moves toward a strictly less loaded
			// card; fault retries and breaker bypasses move regardless —
			// the point there is the independent fault domain, not load.
			f.declined.Inc()
			return 0
		}
		taken := f.cards[target].Adopt(ops[:n])
		if taken > 0 {
			f.redispatched[reason].Add(int64(taken))
		} else {
			f.declined.Inc()
		}
		return taken
	}
}

// noteFleetDegraded triggers a fleet-degraded incident when the router
// found no healthy card to route or steal to and the fleet actually has
// siblings (a single card degrading is the card's own breaker incident).
// The snapshot runs on its own goroutine: callers are the redispatch hook
// (a donor's scheduler/worker goroutine, which must never block) and the
// submit path, and the incident provider reads per-card stats.
func (f *Fleet) noteFleetDegraded(card int, why string) {
	rec := f.cfg.Journeys
	if rec == nil || len(f.cards) < 2 {
		return
	}
	go rec.Trigger("fleet-degraded", map[string]any{
		"cards": len(f.cards), "card": card, "why": why,
	})
}

// Telemetry returns the fleet's shared telemetry bundle.
func (f *Fleet) Telemetry() *telemetry.Telemetry { return f.tel }

// NumCards returns the fleet size.
func (f *Fleet) NumCards() int { return len(f.cards) }

// Card exposes one card's server, for tests and diagnostics.
func (f *Fleet) Card(i int) *phiserve.Server { return f.cards[i] }

// Start launches every card. Canceling ctx fails the whole fleet fast,
// exactly like phiserve.Server.Start.
func (f *Fleet) Start(ctx context.Context) {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		panic("phifleet: Fleet started twice")
	}
	f.started = true
	f.mu.Unlock()
	deadline := f.cards[0].Config().FillDeadline
	f.hot = newHotTracker(deadline, phiserve.BatchSize)
	for _, c := range f.cards {
		c.Start(ctx)
	}
}

// SubmitWork routes one operation of any workload kind to a card and
// returns its result channel. The workload's home card (hash order over
// its RouteBytes) serves it unless the workload is hot — then it
// round-robins over the first Replicas cards — or the preferred card is
// degraded — then the next healthy card in hash order takes it
// (failover). With every candidate degraded the home card serves it
// anyway, which inside phiserve means sibling offer first, scalar
// fallback last. An already-expired context or deadline is rejected at
// the fleet door, and a request carrying a deadline is routed past a card
// whose current delay estimate exceeds the remaining budget, to the
// healthy card with the smallest estimate — shedding is then a per-card
// decision the admission layer makes with the same estimates.
func (f *Fleet) SubmitWork(ctx context.Context, w phiwork.Workload, in phiwork.Input, opts phiserve.SubmitOpts) (<-chan phiserve.Result, error) {
	f.mu.Lock()
	if !f.started {
		f.mu.Unlock()
		return nil, phiserve.ErrNotStarted
	}
	if f.closed {
		f.mu.Unlock()
		return nil, phiserve.ErrClosed
	}
	f.mu.Unlock()
	if w == nil {
		return nil, fmt.Errorf("phifleet: nil workload")
	}
	// Reject dead-on-arrival work before routing burns anything.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	now := time.Now()
	deadline := opts.Deadline
	if deadline.IsZero() {
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		}
	}
	if !deadline.IsZero() && now.After(deadline) {
		return nil, phiserve.ErrDeadlineExceeded
	}
	order := f.ring.order(w)
	why := "home"
	if f.hot.observe(w) && f.cfg.Replicas > 1 {
		// Rotate the replica set so a hot workload's traffic lands evenly
		// on its first Replicas cards.
		r := int(f.rr.Add(1)) % f.cfg.Replicas
		order[0], order[r] = order[r], order[0]
		f.hotRouted.Inc()
		why = "hot"
	}
	pick := order[0]
	if f.cards[pick].Degraded() {
		failedOver := false
		for _, alt := range order[1:] {
			if !f.cards[alt].Degraded() {
				pick = alt
				f.failovers.Inc()
				why = "failover"
				failedOver = true
				break
			}
		}
		if !failedOver {
			why = "degraded"
			f.noteFleetDegraded(pick, "submit")
		}
	}
	if !deadline.IsZero() {
		// Delay-aware routing: key affinity is worthless to a request that
		// would expire in the preferred card's backlog. When the pick's
		// sojourn estimate blows the remaining budget, take the healthy
		// card with the smallest estimate instead (it may still shed at
		// the door — but it is the best bet the fleet has).
		if remaining := deadline.Sub(now); f.cards[pick].EstimatedDelay() > remaining {
			best, bestD := pick, f.cards[pick].EstimatedDelay()
			for j, card := range f.cards {
				if j == pick || card.Degraded() {
					continue
				}
				if d := card.EstimatedDelay(); d < bestD {
					best, bestD = j, d
				}
			}
			if best != pick {
				pick = best
				f.delayRouted.Inc()
				why = "delay"
			}
		}
	}
	journey := opts.Journey
	ownJourney := false
	if journey == nil && f.cfg.Journeys != nil {
		// A submission arriving without a journey (no admission door in
		// front) starts its record here, with whatever SLO the deadline
		// implies; the picked card sees it in opts and rides it through.
		var slo time.Duration
		if !deadline.IsZero() {
			slo = deadline.Sub(now)
		}
		journey = f.cfg.Journeys.BeginWork(opts.Tenant, w.Tag(),
			string(w.Kind()), deadline, slo)
		ownJourney = true
		opts.Journey = journey
		journey.Event("workload", pick, string(w.Kind()))
	}
	journey.Event("route", pick, why)
	ch, err := f.cards[pick].SubmitWork(ctx, w, in, opts)
	if err != nil && ownJourney {
		journey.Finish(phiserve.JourneyOutcome(err), err.Error())
	}
	return ch, err
}

// EstimatedDelay is the fleet-level sojourn estimate an admission layer
// sheds against: the smallest per-card estimate among healthy cards (a
// request the fleet admits goes to the best card, so the door should judge
// against the best card too). With every card degraded it falls back to
// the minimum over all cards.
func (f *Fleet) EstimatedDelay() time.Duration {
	var best time.Duration
	found := false
	for _, c := range f.cards {
		if c.Degraded() {
			continue
		}
		if d := c.EstimatedDelay(); !found || d < best {
			best, found = d, true
		}
	}
	if !found {
		for _, c := range f.cards {
			if d := c.EstimatedDelay(); !found || d < best {
				best, found = d, true
			}
		}
	}
	return best
}

// DoWork is the synchronous convenience wrapper over SubmitWork.
func (f *Fleet) DoWork(ctx context.Context, w phiwork.Workload, in phiwork.Input) (phiserve.Result, error) {
	ch, err := f.SubmitWork(ctx, w, in, phiserve.SubmitOpts{})
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

// Close shuts every card down (graceful drain while the context lives,
// like phiserve.Server.Close). Cards close concurrently: a draining card
// may still offer work to siblings, so closing them one by one would
// serialize the drains for no benefit. Close is idempotent.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range f.cards {
		wg.Add(1)
		go func(c *phiserve.Server) {
			defer wg.Done()
			c.Close()
		}(c)
	}
	wg.Wait()
}

// Stats is the fleet's two-level view: every card's snapshot plus the
// aggregate, and the router's own counters.
type Stats struct {
	// Cards[i] is card i's phiserve snapshot.
	Cards []phiserve.Stats
	// Fleet is the aggregate: counters summed, ratios recomputed from the
	// sums, SimThroughput summed (cards run in parallel). BreakerState
	// holds the count of currently-degraded cards as "k/n degraded".
	Fleet phiserve.Stats
	// Redispatched / Declined count work-stealing moves the router made
	// and offers it turned down; Failovers counts submissions routed past
	// a degraded card; HotRouted counts submissions spread by hot-key
	// replication.
	Redispatched, Declined, Failovers, HotRouted int64
}

// Stats snapshots every card and aggregates.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Redispatched: f.redispatched[0].Value() + f.redispatched[1].Value() + f.redispatched[2].Value(),
		Declined:     f.declined.Value(),
		Failovers:    f.failovers.Value(),
		HotRouted:    f.hotRouted.Value(),
	}
	degraded := 0
	var simLatencyWeighted float64
	for _, c := range f.cards {
		cs := c.Stats()
		st.Cards = append(st.Cards, cs)
		a := &st.Fleet
		a.Submitted += cs.Submitted
		a.Completed += cs.Completed
		a.Failed += cs.Failed
		a.Batches += cs.Batches
		a.DeadlineFires += cs.DeadlineFires
		for i := range cs.FillHist {
			a.FillHist[i] += cs.FillHist[i]
		}
		a.PendingLanes += cs.PendingLanes
		a.QueueDepth += cs.QueueDepth
		a.TotalSimCycles += cs.TotalSimCycles
		a.FaultsDetected += cs.FaultsDetected
		a.KernelFaults += cs.KernelFaults
		a.StalledPasses += cs.StalledPasses
		a.TimedOutBatches += cs.TimedOutBatches
		a.WorkerRespawns += cs.WorkerRespawns
		a.Retries += cs.Retries
		a.FallbackOps += cs.FallbackOps
		a.FallbackCycles += cs.FallbackCycles
		a.BreakerTrips += cs.BreakerTrips
		a.StolenLanes += cs.StolenLanes
		a.AdoptedLanes += cs.AdoptedLanes
		a.OverflowBatches += cs.OverflowBatches
		a.ExpiredLanes += cs.ExpiredLanes
		a.CanceledLanes += cs.CanceledLanes
		a.OverflowDropped += cs.OverflowDropped
		a.RetryBudgetDenied += cs.RetryBudgetDenied
		a.SimThroughput += cs.SimThroughput
		simLatencyWeighted += cs.MeanSimLatency * float64(cs.Completed)
		for k, ws := range cs.Workloads {
			if a.Workloads == nil {
				a.Workloads = make(map[phiwork.Kind]phiserve.WorkloadStats)
			}
			agg := a.Workloads[k]
			agg.Submitted += ws.Submitted
			agg.Completed += ws.Completed
			agg.Batches += ws.Batches
			a.Workloads[k] = agg
		}
		if cs.BreakerState != "closed" {
			degraded++
		}
	}
	a := &st.Fleet
	var fillSum float64
	for i, n := range a.FillHist {
		fillSum += float64(i+1) * float64(n)
	}
	if a.Batches > 0 {
		a.MeanFill = fillSum / float64(a.Batches)
	}
	if a.Completed > 0 {
		a.CyclesPerOp = (a.TotalSimCycles + a.FallbackCycles) / float64(a.Completed)
		a.MeanSimLatency = simLatencyWeighted / float64(a.Completed)
	}
	a.BreakerState = fmt.Sprintf("%d/%d degraded", degraded, len(f.cards))
	return st
}
