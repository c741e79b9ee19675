// Fixture for the lockblock analyzer: blocking operations under a held
// sync.Mutex/RWMutex are flagged; non-blocking shapes and released-lock
// paths are not.
package demo

import "sync"

type queue struct {
	mu    sync.Mutex
	ch    chan int
	items []int
}

type table struct {
	mu sync.RWMutex
	ch chan int
}

type pool struct{}

func (p *pool) Submit(v int)         {}
func (p *pool) TrySubmit(v int) bool { return true }
func (p *pool) Redispatch(v int)     {}

// server has the serving layers' submission shape: SubmitWork blocks on
// card-queue backpressure, DoWork on the result.
type server struct{}

func (s *server) SubmitWork(v int) (<-chan int, error) { return nil, nil }
func (s *server) DoWork(v int) (int, error)            { return 0, nil }

// card has phiserve's steal seam: offerSteal wraps the Redispatch hook,
// which reads this card's Load and calls a sibling's Adopt.
type card struct {
	mu      sync.Mutex
	pending []int
}

func (c *card) offerSteal(v []int) int { return 0 }
func (c *card) Adopt(v []int) int      { return 0 }
func (c *card) Load() int              { return 0 }

func sendHeld(q *queue) {
	q.mu.Lock()
	q.ch <- 1 // want `channel send while holding q\.mu`
	q.mu.Unlock()
}

func sendReleased(q *queue) {
	q.mu.Lock()
	q.items = append(q.items, 1)
	q.mu.Unlock()
	q.ch <- 1 // lock released first
}

func recvHeld(q *queue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return <-q.ch // want `channel receive while holding q\.mu`
}

func recvAssignHeld(q *queue) {
	q.mu.Lock()
	v := <-q.ch // want `channel receive while holding q\.mu`
	q.items = append(q.items, v)
	q.mu.Unlock()
}

func selectHeld(q *queue) {
	q.mu.Lock()
	defer q.mu.Unlock()
	select { // want `select without default while holding q\.mu`
	case v := <-q.ch:
		q.items = append(q.items, v)
	}
}

func selectWithDefault(q *queue) {
	q.mu.Lock()
	defer q.mu.Unlock()
	select { // non-blocking attempt
	case q.ch <- 1:
	default:
	}
}

func rangeHeld(q *queue) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for v := range q.ch { // want `range over channel while holding q\.mu`
		q.items = append(q.items, v)
	}
}

func rangeSliceHeld(q *queue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for range q.items { // ranging a slice does not block
		n++
	}
	return n
}

func waitHeld(q *queue, wg *sync.WaitGroup) {
	q.mu.Lock()
	wg.Wait() // want `sync\.WaitGroup\.Wait while holding q\.mu`
	q.mu.Unlock()
}

func submitHeld(q *queue, p *pool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	p.Submit(1) // want `blocking Submit call while holding q\.mu`
}

func submitWorkHeld(q *queue, s *server) {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, _ = s.SubmitWork(1) // want `blocking SubmitWork call while holding q\.mu`
}

func doWorkHeld(q *queue, s *server) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	v, _ := s.DoWork(1) // want `blocking DoWork call while holding q\.mu`
	return v
}

func submitWorkInConditionHeld(q *queue, s *server) {
	q.mu.Lock()
	if _, err := s.SubmitWork(1); err != nil { // want `blocking SubmitWork call while holding q\.mu`
		q.items = nil
	}
	q.mu.Unlock()
}

func submitWorkReleased(q *queue, s *server) (<-chan int, error) {
	q.mu.Lock()
	q.items = append(q.items, 1)
	q.mu.Unlock()
	return s.SubmitWork(1) // lock released first, as the door and the router do
}

func redispatchHeld(q *queue, p *pool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	p.Redispatch(1) // want `blocking Redispatch call while holding q\.mu`
}

func offerStealHeld(c *card) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = c.pending[c.offerSteal(c.pending):] // want `blocking offerSteal call while holding c\.mu`
}

func adoptHeld(c, sibling *card) int {
	c.mu.Lock()
	n := sibling.Adopt(c.pending) // want `blocking Adopt call while holding c\.mu`
	c.mu.Unlock()
	return n
}

func offerStealReleased(c *card) int {
	c.mu.Lock()
	reqs := c.pending
	c.pending = nil
	c.mu.Unlock()
	return c.offerSteal(reqs) // lock released first, as the card queue's seal does
}

func loadHeld(c *card) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Load() // not a blocking call
}

func trySubmitHeld(q *queue, p *pool) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return p.TrySubmit(1) // non-blocking by contract
}

func funcLitEscapes(q *queue) func() {
	q.mu.Lock()
	defer q.mu.Unlock()
	return func() { q.ch <- 1 } // runs under the caller's locks, not these
}

func goStmtOtherGoroutine(q *queue) {
	q.mu.Lock()
	defer q.mu.Unlock()
	go func() { q.ch <- 1 }() // another goroutine, not this critical section
}

func branchHeld(q *queue, hot bool) {
	q.mu.Lock()
	if hot {
		q.ch <- 1 // want `channel send while holding q\.mu`
	}
	q.mu.Unlock()
}

func rlockHeld(t *table) {
	t.mu.RLock()
	t.ch <- 1 // want `channel send while holding t\.mu`
	t.mu.RUnlock()
}

func rlockReleased(t *table) {
	t.mu.RLock()
	t.mu.RUnlock()
	t.ch <- 1 // read lock released first
}
