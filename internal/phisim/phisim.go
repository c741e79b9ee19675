// Package phisim is the virtual-time discrete-event engine behind the
// serving experiments A6–A10.
//
// The live stack (phiadmit → phifleet → phiserve → phipool) batches by the
// host wall clock, so its latency and throughput vary run to run. The
// engine replays its policies in simulated machine time instead, costing
// every kernel pass with metered cycle counts the caller supplies, so a
// seeded run replays exactly. What differs between experiments is data in
// Config: cards, workers, pass costs, each key's home card, tenants and
// their traffic shares, the fault rate, and whether stealing and the door
// are on. One run:
//
//   - Arrivals are Poisson at the offered rate. Each draws its gap, then its
//     tenant when Config has tenants, then its key when there is more than
//     one. All are drawn before the run starts.
//   - The door, when on, estimates the home card's delay, keeps brownout
//     hysteresis, sheds requests the estimate puts past their SLO budget
//     and, in brownout, shapes tenants with weighted token buckets.
//   - Per-key batches seal at BatchSize lanes or at the fill deadline.
//     After the final arrival, every batch still open dispatches at that
//     arrival, as the live Server.Close flushes them; the engine takes
//     them oldest first, where the live flush order is unspecified.
//   - Each card serves sealed batches FIFO on its earliest-free worker.
//     With stealing on, a batch whose home card is busy runs on the card
//     that frees first. With the door on, lanes past their deadline are
//     dropped before the pass.
//   - With faults on, every lane of every pass fails verification with the
//     fault rate. Failed lanes retry back to back up to the live retry
//     limit, then take the scalar path. The live phiserve breaker, one per
//     card on the virtual clock, sends whole batches to the scalar path
//     while it is open.
//   - With journeys on, a live phitrace.Recorder runs on the virtual clock
//     and every arrival resolves exactly one journey. Journeys record the
//     route, door, submit, seal, checkpoint and pass steps; the fault and
//     steal paths add no events.
//
// EXPERIMENTS.md ("Simulator vs live code") lists where the engine's
// policies still differ from the live ones.
package phisim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiadmit"
	"phiopenssl/internal/phifleet"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phitrace"
)

// lanes is the lane count of one kernel pass.
const lanes = phiserve.BatchSize

// Config is one experiment's stack. Nil pointers leave a layer out.
type Config struct {
	// Machine is one simulated card; all cards are identical.
	Machine knc.Machine
	// Cards is the fleet size; Workers is the batch executors per card.
	Cards, Workers int
	// CostPerFill[f] is the metered cycle cost of one kernel pass with f
	// live lanes (index 1..BatchSize).
	CostPerFill [lanes + 1]float64
	// FillDeadline is how long a partial batch waits for more lanes.
	FillDeadline time.Duration
	// Homes[k] is key k's home card, and len(Homes) is the key count.
	// Nil means one key on card 0.
	Homes []int
	// Steal runs a batch whose home card is busy on the card whose
	// earliest-free worker frees first.
	Steal bool
	// Tenants is the traffic mix; nil means one anonymous tenant.
	Tenants []Tenant
	// SLO is every request's latency budget. It sets the deadline the
	// door and the goodput count judge by; zero means no deadline.
	SLO time.Duration
	// Faults, when set, makes kernel passes fail verification.
	Faults *Faults
	// Door, when set, puts the admission door in front of the cards.
	// Without it requests carry no deadline into the stack, so nothing
	// is dropped before its pass.
	Door *Door
	// Journeys, when set, runs a recorder built from it on the virtual
	// clock. Its Clock and Telemetry are replaced.
	Journeys *phitrace.Config
}

// Tenant is one traffic class.
type Tenant struct {
	ID string
	// Share is the tenant's fraction of the arrivals (normalized over the
	// mix); Weight is its brownout fair-queuing weight.
	Share, Weight float64
}

// Faults is the verification-failure model.
type Faults struct {
	// Rate is the probability that one lane of one pass fails
	// verification. ScalarCost is the metered cycle cost of one op on
	// the scalar fallback path.
	Rate, ScalarCost float64
}

// Door is the admission door's setting; zero fields take the live
// phiadmit defaults.
type Door struct {
	// Margin is the fraction of each budget held back for estimate error.
	Margin float64
	// BrownoutEnter and BrownoutExit are the hysteresis thresholds on the
	// delay estimate.
	BrownoutEnter, BrownoutExit time.Duration
}

// Point is one run's operating point.
type Point struct {
	Offered  float64 // arrivals per simulated second
	Requests int

	// Every arrival is admitted or shed at the door; Brownouts counts
	// entries into brownout.
	Admitted, ShedOverload, ShedTenant, Brownouts int
	// Expired lanes were admitted but dropped before their pass.
	// ExpiredExecuted lanes reached their pass after their deadline; the
	// door's drop keeps it at 0.
	Expired, ExpiredExecuted int
	// Completed lanes finished; Good ones finished inside their SLO.
	Completed, Good int

	// MeanFill is the live lanes per sealed batch that reached a pass.
	// FillHist[f] counts passes (retries included) with f live lanes.
	MeanFill float64
	FillHist [lanes + 1]int
	// CyclesPerOp is every cycle spent, fallback included, per request.
	CyclesPerOp float64
	// Throughput and Goodput are completions and good completions per
	// simulated second, from the first arrival to the last completion.
	// Utilization is the busy share of all workers over the same span.
	Throughput, Goodput, Utilization float64
	// Latencies run from arrival to completion.
	MeanLatency, P50Latency, P99Latency time.Duration

	// Steals counts batches run away from their home card.
	Steals int
	// FaultedLanes counts lane-passes that failed verification,
	// RetryPasses the extra passes, FallbackOps the lanes the scalar
	// path served, BreakerTrips the breaker trips over all cards and
	// MeanAttempts the failed passes each request survived.
	FaultedLanes, RetryPasses, FallbackOps int
	BreakerTrips                           int64
	MeanAttempts                           float64

	Tenants []TenantPoint
	// Counts and BurnAll are the recorder's stream counters and
	// fast-window aggregate burn rate at run end.
	Counts  phitrace.Counts
	BurnAll float64
}

// TenantPoint is one tenant's slice of a Point.
type TenantPoint struct {
	ID                                                string
	Offered, Admitted, ShedOverload, ShedTenant, Good int
	P99                                               time.Duration
	Burn                                              float64 // fast-window burn rate at run end
}

// Capacity is the fleet's saturated throughput in requests per simulated
// second: every worker completing full passes back to back.
func (c Config) Capacity() float64 {
	pass := c.Machine.Latency(c.Workers, c.CostPerFill[lanes])
	return float64(c.Cards) * float64(c.Workers) * float64(lanes) / pass
}

// RingHomes homes keys synthetic keys on the live fleet ring of cards
// cards. Key k's route hash is splitmix64 of k+0x5bf03635; the live router
// hashes the modulus, and any stable identity spreads keys alike.
func RingHomes(cards, keys int) []int {
	homes := make([]int, keys)
	for k := range homes {
		x := uint64(k) + 0x5bf03635 + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		homes[k] = phifleet.HomeCard(cards, x^(x>>31))
	}
	return homes
}

// ModHomes homes key k on card k mod cards.
func ModHomes(cards, keys int) []int {
	homes := make([]int, keys)
	for k := range homes {
		homes[k] = k % cards
	}
	return homes
}

func (c Config) validate(n int, offered float64) error {
	switch {
	case n < 1 || offered <= 0:
		return fmt.Errorf("phisim: need n >= 1 arrivals at positive load")
	case c.Cards < 1 || c.Workers < 1:
		return fmt.Errorf("phisim: need at least one card and one worker")
	case (c.Door != nil || c.Journeys != nil) && c.SLO <= 0:
		return fmt.Errorf("phisim: the door and journeys need an SLO")
	}
	for f := 1; f <= lanes; f++ {
		if c.CostPerFill[f] <= 0 {
			return fmt.Errorf("phisim: CostPerFill[%d] not measured", f)
		}
	}
	for k, h := range c.Homes {
		if h < 0 || h >= c.Cards {
			return fmt.Errorf("phisim: key %d homed on card %d of %d", k, h, c.Cards)
		}
	}
	if f := c.Faults; f != nil {
		if f.Rate < 0 || f.Rate > 1 {
			return fmt.Errorf("phisim: lane fault rate %g out of [0,1]", f.Rate)
		}
		if f.ScalarCost <= 0 {
			return fmt.Errorf("phisim: Faults.ScalarCost not measured")
		}
	}
	return nil
}

// epoch is virtual time zero.
var epoch = time.Unix(0, 0).UTC()

// secs converts simulated seconds to a Duration.
func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

type request struct {
	at, deadline float64
	tenant, key  int
	j            *phitrace.Journey
}

// batch is one key's batch: its lanes (request indexes, oldest first),
// its fill deadline and its home card.
type batch struct {
	lanes  []int
	sealAt float64
	home   int
}

// bucket is one tenant's brownout token bucket.
type bucket struct{ rate, burst, tokens, last float64 }

// run is one simulation's state.
type run struct {
	Config
	rng      *rand.Rand
	tenants  []Tenant
	homes    []int
	reqs     []request
	open     []*batch    // open[key]: the key's filling batch
	free     [][]float64 // free[card][worker]: when the worker next idles
	brk      []*phiserve.Breaker
	retries  int     // live vector retry limit
	now      float64 // the breakers' clock: the pass being decided
	rec      *phitrace.Recorder
	vnow     float64 // the recorder's clock: the latest instant it was told
	door     phiadmit.Config
	buckets  []bucket
	brownout bool

	pt                                        Point
	lats                                      []float64
	tlats                                     [][]float64
	busy, cycles, fillSum, attempts, lastDone float64
	batches                                   int
}

// Simulate runs n Poisson arrivals at offered requests per simulated
// second through the configured stack. It returns the operating point and
// the recorder (nil without Journeys). The rng makes runs reproducible.
func (c Config) Simulate(rng *rand.Rand, n int, offered float64) (Point, *phitrace.Recorder, error) {
	if err := c.validate(n, offered); err != nil {
		return Point{}, nil, err
	}
	r := &run{Config: c, rng: rng, tenants: c.Tenants, homes: c.Homes}
	if len(r.tenants) == 0 {
		r.tenants = []Tenant{{Share: 1, Weight: 1}}
	}
	if len(r.homes) == 0 {
		r.homes = []int{0}
	}
	r.arrive(n, offered)
	r.open = make([]*batch, len(r.homes))
	r.free = make([][]float64, c.Cards)
	for i := range r.free {
		r.free[i] = make([]float64, c.Workers)
	}
	if c.Faults != nil {
		res := phiserve.Resilience{}.WithDefaults()
		r.retries = res.MaxRetries
		clock := func() time.Time { return epoch.Add(secs(r.now)) }
		for range r.free {
			r.brk = append(r.brk, phiserve.NewBreaker(res, clock))
		}
	}
	if c.Journeys != nil {
		rc := *c.Journeys
		rc.Telemetry = nil
		rc.Clock = func() time.Time { return epoch.Add(secs(r.vnow)) }
		r.rec = phitrace.New(rc)
	}
	if c.Door != nil {
		r.door = phiadmit.Config{SLO: c.SLO, Margin: c.Door.Margin,
			BrownoutEnter: c.Door.BrownoutEnter, BrownoutExit: c.Door.BrownoutExit,
			Journeys: r.rec}.WithDefaults()
		r.fillBuckets()
	}
	r.pt = Point{Offered: offered, Requests: n, Tenants: make([]TenantPoint, len(r.tenants))}
	for i, tn := range r.tenants {
		r.pt.Tenants[i].ID = tn.ID
	}
	r.tlats = make([][]float64, len(r.tenants))

	for i := range r.reqs {
		q := &r.reqs[i]
		r.seal(q.at, q.at)
		tp := &r.pt.Tenants[q.tenant]
		tp.Offered++
		card := r.homes[q.key]
		at := r.clock(q.at)
		if r.rec != nil {
			q.j = r.rec.BeginAt(at, r.tenants[q.tenant].ID, fmt.Sprintf("key-%d", q.key),
				epoch.Add(secs(q.deadline)), c.SLO)
		}
		q.j.EventAt(at, "route", card, "home")
		if c.Door != nil && !r.admit(q, card, at) {
			continue
		}
		r.pt.Admitted++
		tp.Admitted++
		b := r.open[q.key]
		if b == nil {
			b = &batch{sealAt: q.at + c.FillDeadline.Seconds(), home: card}
			r.open[q.key] = b
		}
		b.lanes = append(b.lanes, i)
		q.j.EventAt(at, "submit", card, "")
		if len(b.lanes) == lanes {
			r.open[q.key] = nil
			r.dispatch(b, q.at)
		}
	}
	r.seal(math.Inf(1), r.reqs[n-1].at)
	r.finishPoint()
	return r.pt, r.rec, nil
}

// arrive draws every arrival: its gap, then its tenant when the mix has
// tenants, then its key when there is more than one.
func (r *run) arrive(n int, offered float64) {
	var sumShare float64
	for _, tn := range r.tenants {
		sumShare += tn.Share
	}
	slo := r.SLO.Seconds()
	r.reqs = make([]request, n)
	t := 0.0
	for i := range r.reqs {
		t += r.rng.ExpFloat64() / offered
		q := request{at: t, deadline: math.Inf(1)}
		if len(r.Tenants) > 0 {
			u := r.rng.Float64() * sumShare
			for u > r.tenants[q.tenant].Share && q.tenant < len(r.tenants)-1 {
				u -= r.tenants[q.tenant].Share
				q.tenant++
			}
		}
		if len(r.homes) > 1 {
			q.key = r.rng.Intn(len(r.homes))
		}
		if r.SLO > 0 {
			q.deadline = t + slo
		}
		r.reqs[i] = q
	}
}

// fillBuckets gives each tenant a full bucket refilling at its weighted
// share of the fleet capacity, as the door does with Capacity set.
func (r *run) fillBuckets() {
	weight := func(tn Tenant) float64 {
		if tn.Weight <= 0 {
			return 1
		}
		return tn.Weight
	}
	var sumW float64
	for _, tn := range r.tenants {
		sumW += weight(tn)
	}
	capacity := r.Capacity()
	for _, tn := range r.tenants {
		rate := capacity * weight(tn) / sumW
		burst := math.Max(rate*r.door.BurstWindow.Seconds(), 1)
		r.buckets = append(r.buckets, bucket{rate: rate, burst: burst, tokens: burst})
	}
}

// clock stamps simulated instant t for the recorder, whose clock is the
// latest instant it has been told.
func (r *run) clock(t float64) time.Time {
	if t > r.vnow {
		r.vnow = t
	}
	return epoch.Add(secs(t))
}

// note formats a journey note; without a recorder nobody reads it.
func (r *run) note(format string, args ...any) string {
	if r.rec == nil {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// pass is the simulated duration of one kernel pass with fill lanes.
func (r *run) pass(fill int) float64 {
	return r.Machine.Latency(r.Workers, r.CostPerFill[fill])
}

// earliest is card's earliest-free worker.
func (r *run) earliest(card int) int {
	w := 0
	for k, f := range r.free[card] {
		if f < r.free[card][w] {
			w = k
		}
	}
	return w
}

// seal dispatches, oldest first, every open batch whose fill deadline is
// at or before upTo, each at its deadline or at end if that is earlier.
func (r *run) seal(upTo, end float64) {
	for {
		best := -1
		for k, b := range r.open {
			if b != nil && b.sealAt <= upTo && (best < 0 || b.sealAt < r.open[best].sealAt) {
				best = k
			}
		}
		if best < 0 {
			return
		}
		b := r.open[best]
		r.open[best] = nil
		r.dispatch(b, math.Min(b.sealAt, end))
	}
}

// admit runs the door for q, homed on card; false means q was shed.
func (r *run) admit(q *request, card int, at time.Time) bool {
	d := &r.door
	// The estimate: the fill wait, the wait for the home card's
	// earliest-free worker, and one full pass.
	wait := math.Max(r.free[card][r.earliest(card)]-q.at, 0)
	est := r.FillDeadline.Seconds() + wait + r.pass(lanes)
	q.j.EventAt(at, "door", -1, r.note("est=%.1fms", est*1e3))
	var burn float64
	if d.BurnEnter > 0 {
		burn = r.rec.BurnRate("", r.rec.FastWindow())
	}
	enter := est >= d.BrownoutEnter.Seconds() || (d.BurnEnter > 0 && burn >= d.BurnEnter)
	exit := est <= d.BrownoutExit.Seconds() && (d.BurnEnter <= 0 || burn <= d.BurnExit)
	switch {
	case !r.brownout && enter:
		r.brownout = true
		r.pt.Brownouts++
		r.rec.TriggerAt(at, "brownout-enter", map[string]any{"est_ms": est * 1e3, "burn": burn})
	case r.brownout && exit:
		r.brownout = false
		r.rec.TriggerAt(at, "brownout-exit", map[string]any{"est_ms": est * 1e3, "burn": burn})
	}
	tp := &r.pt.Tenants[q.tenant]
	if est > r.SLO.Seconds()*(1-d.Margin) {
		r.pt.ShedOverload++
		tp.ShedOverload++
		q.j.FinishAt(at, phitrace.OutcomeShedOverload, r.note("est=%.1fms", est*1e3))
		return false
	}
	if r.brownout {
		b := &r.buckets[q.tenant]
		if dt := q.at - b.last; dt > 0 {
			b.tokens = math.Min(b.tokens+dt*b.rate, b.burst)
		}
		b.last = q.at
		if b.tokens < 1 {
			r.pt.ShedTenant++
			tp.ShedTenant++
			q.j.FinishAt(at, phitrace.OutcomeShedTenant, "brownout fair queue")
			return false
		}
		b.tokens--
	}
	return true
}

// dispatch runs batch b, sealed at instant at, to completion on its
// card's earliest-free worker (or, stealing, the fleet's): the drop
// checkpoint, the passes and their retries, then the scalar fallback.
func (r *run) dispatch(b *batch, at float64) {
	card := b.home
	w := r.earliest(card)
	if r.Steal && r.free[card][w] > at {
		for c := range r.free {
			if cw := r.earliest(c); r.free[c][cw] < r.free[card][w] {
				card, w = c, cw
			}
		}
	}
	start := math.Max(at, r.free[card][w])
	sealed := r.clock(at)
	note := r.note("fill=%d", len(b.lanes))
	var live []int
	for _, i := range b.lanes {
		q := &r.reqs[i]
		q.j.EventAt(sealed, "seal", b.home, note)
		switch {
		case q.deadline >= start:
			live = append(live, i)
		case r.Door == nil: // no deadline reached the cards: it runs late
			r.pt.ExpiredExecuted++
			live = append(live, i)
		default:
			r.pt.Expired++
			t := r.clock(start)
			q.j.EventAt(t, "checkpoint", card, "pre-pass")
			q.j.FinishAt(t, phitrace.OutcomeExpired, "deadline passed in backlog")
		}
	}
	if card != b.home {
		r.pt.Steals++
	}
	if len(live) == 0 {
		return
	}

	r.now = start
	t := start
	pending, attempt := live, 0
	allow, probe := true, false
	var brk *phiserve.Breaker
	if r.brk != nil {
		brk = r.brk[card]
		allow, probe = brk.AllowVector()
	}
	for allow {
		failed := 0
		if r.Faults != nil {
			for range pending {
				if r.rng.Float64() < r.Faults.Rate {
					failed++
				}
			}
		}
		fill := len(pending)
		d := r.pass(fill)
		from, passAt := t, r.clock(t)
		t += d
		r.now = t
		r.busy += d
		r.cycles += r.CostPerFill[fill]
		r.pt.FillHist[fill]++
		if attempt == 0 {
			r.batches++
			r.fillSum += float64(fill)
		} else {
			r.pt.RetryPasses++
		}
		if brk != nil {
			brk.Record(failed > 0, probe)
		}
		probe = false
		// Which lanes fail is symmetric; the oldest ones do, so a replay
		// is deterministic.
		note := r.note("worker=%d fill=%d", w, fill)
		for _, i := range pending[failed:] {
			r.reqs[i].j.EventDurAt(passAt, "pass", card, note, secs(t-from))
			r.finish(i, t, attempt, note)
		}
		r.pt.FaultedLanes += failed
		pending = pending[:failed]
		if failed == 0 {
			break
		}
		attempt++
		if attempt > r.retries || !brk.Healthy() {
			break
		}
	}
	// The scalar path serves what the vector path could not, newest lane
	// first.
	if len(pending) > 0 {
		r.pt.FallbackOps += len(pending)
		r.cycles += float64(len(pending)) * r.Faults.ScalarCost
		op := r.Machine.Latency(r.Workers, r.Faults.ScalarCost)
		for k := len(pending) - 1; k >= 0; k-- {
			t += op
			r.busy += op
			r.finish(pending[k], t, attempt, "fallback")
		}
	}
	r.free[card][w] = t
}

// finish completes request i at simulated instant done after attempt
// failed passes.
func (r *run) finish(i int, done float64, attempt int, note string) {
	q := &r.reqs[i]
	lat := done - q.at
	r.lats = append(r.lats, lat)
	r.tlats[q.tenant] = append(r.tlats[q.tenant], lat)
	r.pt.Completed++
	r.attempts += float64(attempt)
	if done <= q.deadline {
		r.pt.Good++
		r.pt.Tenants[q.tenant].Good++
	}
	if done > r.lastDone {
		r.lastDone = done
	}
	q.j.FinishAt(r.clock(done), phitrace.OutcomeCompleted, note)
}

// finishPoint derives the run's aggregates.
func (r *run) finishPoint() {
	pt := &r.pt
	if r.batches > 0 {
		pt.MeanFill = r.fillSum / float64(r.batches)
	}
	pt.CyclesPerOp = r.cycles / float64(pt.Requests)
	pt.MeanAttempts = r.attempts / float64(pt.Requests)
	if span := r.lastDone - r.reqs[0].at; span > 0 {
		pt.Throughput = float64(pt.Completed) / span
		pt.Goodput = float64(pt.Good) / span
		pt.Utilization = r.busy / (span * float64(r.Workers) * float64(r.Cards))
	}
	pt.MeanLatency, pt.P50Latency, pt.P99Latency = latencyStats(r.lats)
	for _, b := range r.brk {
		pt.BreakerTrips += b.Trips()
	}
	pt.Counts = r.rec.Counts()
	pt.BurnAll = r.rec.BurnRate("", r.rec.FastWindow())
	for i := range pt.Tenants {
		_, _, pt.Tenants[i].P99 = latencyStats(r.tlats[i])
		pt.Tenants[i].Burn = r.rec.BurnRate(pt.Tenants[i].ID, r.rec.FastWindow())
	}
}

// latencyStats sorts ls and returns its mean, p50 and p99.
func latencyStats(ls []float64) (mean, p50, p99 time.Duration) {
	k := len(ls)
	if k == 0 {
		return 0, 0, 0
	}
	sort.Float64s(ls)
	var sum float64
	for _, l := range ls {
		sum += l
	}
	return secs(sum / float64(k)), secs(ls[(50*k+99)/100-1]), secs(ls[(99*k+99)/100-1])
}
