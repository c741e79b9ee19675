package phifleet

import (
	"sort"
	"sync"
	"time"

	"phiopenssl/internal/phiwork"
)

// hashBytes is FNV-1a over b: stable across processes (unlike pointer
// identity), so a key routes to the same card on every run.
func hashBytes(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// splitmix64 decorrelates vnode ordinals into ring positions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ring is a consistent-hash ring over card indexes: each card owns VNodes
// points, keys land on the next point clockwise. Consistent hashing keeps
// the key→card map stable when the fleet is resized between runs — only
// the keys on moved points change owners — which matters because a key's
// open batch lives on its card.
type ring struct {
	points []ringPoint // sorted by pos
	cards  int
}

type ringPoint struct {
	pos  uint64
	card int
}

func newRing(cards, vnodes int) *ring {
	r := &ring{cards: cards}
	for c := 0; c < cards; c++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				pos:  splitmix64(uint64(c)<<32 | uint64(v)),
				card: c,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].pos < r.points[j].pos })
	return r
}

// order returns every card index in this workload's hash-preference
// order: the owner first, then the distinct successors clockwise.
// order[1:] is the replication/failover chain. The hash covers the
// workload's RouteBytes (kind + modulus), so two kinds over the same key
// — decryption and signing, say — can land on different home cards.
func (r *ring) order(w phiwork.Workload) []int {
	return r.orderOf(hashBytes(w.RouteBytes()))
}

// orderOf is order for a precomputed route hash.
func (r *ring) orderOf(h uint64) []int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	out := make([]int, 0, r.cards)
	seen := make([]bool, r.cards)
	for k := 0; k < len(r.points) && len(out) < r.cards; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.card] {
			seen[p.card] = true
			out = append(out, p.card)
		}
	}
	return out
}

// HomeCard returns the card that owns route hash h on the default ring of
// a cards-card fleet: where the live router homes a key hashing to h.
func HomeCard(cards int, h uint64) int {
	c := Config{Cards: cards}.withDefaults()
	return newRing(c.Cards, c.VNodes).orderOf(h)[0]
}

// hotTracker watches per-workload arrival rates. A workload is hot while
// its arrivals exceed one full batch per fill deadline — the point past
// which a single card's open batch fills before its deadline anyway, so
// spreading the workload across replicas stops costing fill and starts
// buying card parallelism.
type hotTracker struct {
	window    time.Duration // one fill deadline
	threshold int           // arrivals per window that make a workload hot
	mu        sync.Mutex
	states    map[phiwork.Workload]*hotState
	now       func() time.Time // injectable for tests
}

type hotState struct {
	windowStart time.Time
	count       int
	hot         bool
}

// hotTrackerMaxKeys bounds the tracker like the workTag cache: beyond it
// the state map resets wholesale (a workload re-earns hotness in one
// window).
const hotTrackerMaxKeys = 1024

func newHotTracker(window time.Duration, threshold int) *hotTracker {
	return &hotTracker{
		window:    window,
		threshold: threshold,
		states:    make(map[phiwork.Workload]*hotState),
		now:       time.Now,
	}
}

// observe records one arrival for w and reports whether the workload is
// currently hot. Hotness flips at window boundaries: a window that
// reached the threshold marks the next window hot, one that did not
// clears it.
func (h *hotTracker) observe(w phiwork.Workload) bool {
	now := h.now()
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.states[w]
	if st == nil {
		if len(h.states) >= hotTrackerMaxKeys {
			h.states = make(map[phiwork.Workload]*hotState)
		}
		st = &hotState{windowStart: now}
		h.states[w] = st
	}
	if el := now.Sub(st.windowStart); el >= h.window {
		// A full quiet window (no arrival rolled the window on time)
		// means the old count is stale history, not a live rate.
		st.hot = st.count >= h.threshold && el < 2*h.window
		st.windowStart = now
		st.count = 0
	}
	st.count++
	if st.count >= h.threshold {
		// Don't wait for the window to roll to notice a burst.
		st.hot = true
	}
	return st.hot
}
