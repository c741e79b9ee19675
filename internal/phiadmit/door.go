package phiadmit

import "time"

// burstWindow sizes each tenant's brownout bucket: rate × burstWindow
// tokens (at least 1), so a tenant can burst that far ahead of its rate
// before fair queuing sheds it.
const burstWindow = 100 * time.Millisecond

// burnEnter and burnExit are the brownout thresholds on the fleet-wide SLO
// burn rate (bad fraction over budget, from the journey recorder's fast
// window). The door enters brownout at burnEnter even while the delay
// estimate looks healthy — the journey stream notices deadline misses the
// point-in-time estimate cannot — and leaves it only once the burn has
// cooled to burnExit too. Without a recorder the burn reads 0, which
// leaves the estimate alone in charge.
const (
	burnEnter = 2
	burnExit  = 1
)

// Door is the admission decision on an explicit clock: the brownout
// hysteresis on the delay estimate and the burn rate, the overload shed at
// (1−Margin)×SLO, and the per-tenant brownout token buckets. The
// Controller runs one under its mutex on the host clock; the virtual-time
// engine (internal/phisim) runs one on simulated time. A Door is not safe
// for concurrent use.
type Door struct {
	enter, exit time.Duration
	margin      float64
	brownout    bool
	// buckets[i] is declared tenant i; the last one is the implicit class
	// undeclared tenant ids share.
	buckets []bucket
}

// bucket is one tenant's SLO and brownout token bucket.
type bucket struct {
	slo                 time.Duration
	rate, burst, tokens float64 // rate in tokens per second
	last                time.Time
}

// Verdict is one door decision.
type Verdict struct {
	// Shed is nil for an admission, else ErrShedOverload or ErrShedTenant.
	Shed error
	// Charged reports that the admission spent a brownout token, which
	// Refund returns if the backend then refuses the request.
	Charged bool
	// Transition is "enter" or "exit" when this decision moved the door
	// into or out of brownout, else "".
	Transition string
}

// NewDoor builds the door cfg describes, defaults applied. Door tenant i
// is cfg.Tenants[i]; tenant len(cfg.Tenants) is the implicit weight-1
// class. That class also counts in the weight sum, so declared tenants
// keep guaranteed shares when anonymous traffic shows up: tenant i
// refills at Capacity × weight_i / (ΣW + 1).
func NewDoor(cfg Config) *Door {
	cfg = cfg.WithDefaults()
	d := &Door{enter: cfg.BrownoutEnter, exit: cfg.BrownoutExit, margin: cfg.Margin}
	sumW := 1.0
	for _, tn := range cfg.Tenants {
		sumW += weightOf(tn)
	}
	add := func(w float64, slo time.Duration) {
		if slo <= 0 {
			slo = cfg.SLO
		}
		rate := 0.0
		if cfg.Capacity > 0 {
			rate = cfg.Capacity * w / sumW
		}
		burst := max(rate*burstWindow.Seconds(), 1)
		// Buckets start full: a cold system admits a burst cleanly.
		d.buckets = append(d.buckets, bucket{slo: slo, rate: rate, burst: burst, tokens: burst})
	}
	for _, tn := range cfg.Tenants {
		add(weightOf(tn), tn.SLO)
	}
	add(1, 0)
	return d
}

// weightOf is tn's brownout weight: <= 0 counts as 1.
func weightOf(tn Tenant) float64 {
	if tn.Weight <= 0 {
		return 1
	}
	return tn.Weight
}

// Decide judges one request of tenant at instant now, given the backend's
// delay estimate and the SLO burn rate (0 without a journey recorder).
func (d *Door) Decide(now time.Time, tenant int, est time.Duration, burn float64) Verdict {
	var v Verdict
	// Hysteresis: enter at the high threshold, leave only below the low
	// one. Between the two the current state holds, so the door cannot
	// flap when the estimate hovers at a threshold. The burn rate is a
	// second entry signal, and exit also requires it to have cooled.
	enter := est >= d.enter || burn >= burnEnter
	exit := est <= d.exit && burn <= burnExit
	if !d.brownout && enter {
		d.brownout, v.Transition = true, "enter"
	} else if d.brownout && exit {
		d.brownout, v.Transition = false, "exit"
	}
	b := &d.buckets[tenant]
	// Overload shed: if the backlog alone eats the budget (less the error
	// margin), the request cannot finish in time.
	if float64(est) > float64(b.slo)*(1-d.margin) {
		v.Shed = ErrShedOverload
		return v
	}
	// Brownout fair queuing: while overloaded, each tenant spends tokens
	// refilled at its weighted share of Capacity. Outside brownout the
	// buckets are not charged, so light load is never shaped.
	if d.brownout && b.rate > 0 {
		b.refill(now)
		if b.tokens < 1 {
			v.Shed = ErrShedTenant
			return v
		}
		b.tokens--
		v.Charged = true
	}
	return v
}

// Refund returns the token a charged admission of tenant spent.
func (d *Door) Refund(tenant int) { d.buckets[tenant].tokens++ }

// refill lazily credits the bucket for the time since the last touch.
func (b *bucket) refill(now time.Time) {
	if b.last.IsZero() {
		b.last = now
		return
	}
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.last = now
	b.tokens = min(b.tokens+dt*b.rate, b.burst)
}
