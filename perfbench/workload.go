package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bench"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/dh"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/phiadmit"
	"phiopenssl/internal/phifleet"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
	"phiopenssl/internal/vpu"
)

// share is one workload kind's weight in a traffic mix.
type share struct {
	kind   phiwork.Kind
	weight int
}

// spec is one benchmark workload: a traffic mix at one modulus width,
// driven as a closed loop (clients > 0) or an open loop at rate ops/s.
type spec struct {
	name    string
	bits    int // RSA modulus and DH group width
	mix     []share
	clients int
	rate    float64
	// cards is an open loop's fleet size; the kernel workers are split
	// evenly among the cards.
	cards int
	// limit is the latency limit goodput and slo_met_frac count against;
	// on the open loops it is also the admission SLO.
	limit time.Duration
	// storm, when n > 0, adds a second tenant's spikes to an open loop.
	storm storm
}

// storm is a spike of n arrivals of the mix spread over span, starting at
// offset at of every part of the timed window, sent as stormTenant with
// admission SLO slo. Every part holds one spike whatever the seed.
type storm struct {
	n             int
	at, span, slo time.Duration
}

// blend is the A11 handshake op population: 28 rsa-priv : 42 dhe-fixed :
// 42 dhe-var : 42 pss-sign : 28 public.
var blend = []share{
	{phiwork.KindRSAPrivate, 28},
	{phiwork.KindDHEFixed, 42},
	{phiwork.KindDHEVar, 42},
	{phiwork.KindPSSSign, 42},
	{phiwork.KindPublic, 28},
}

// specs are the benchmark's workloads. README.md records why each was
// chosen and the regimes left out as unsteady.
var specs = []spec{
	// Kernel-bound: 32 clients = 2 workers x 16 lanes keep every batch full.
	{name: "rsa2048-closed", bits: 2048, mix: []share{{phiwork.KindRSAPrivate, 1}}, clients: 32, limit: time.Second},
	// Cheap passes, so the per-request cost of the serving path dominates.
	{name: "public2048-open", bits: 2048, mix: []share{{phiwork.KindPublic, 1}}, rate: 300, cards: 2, limit: 200 * time.Millisecond},
	// Past saturation: the admission door sheds and deadlines expire.
	{name: "blend1024-overload", bits: 1024, mix: blend, rate: 600, cards: 2, limit: 250 * time.Millisecond},
	// Heavy and light kinds sharing one two-worker card well below
	// saturation, plus a tenant whose SLO is shorter than any heavy pass:
	// the door sheds every request of its spikes.
	{name: "blend1024-storm", bits: 1024, mix: blend, rate: 30, cards: 1, limit: 250 * time.Millisecond,
		storm: storm{n: 200, at: 3 * time.Second, span: 50 * time.Millisecond, slo: 10 * time.Millisecond}},
}

func specByName(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (sp spec) open() bool { return sp.clients == 0 }

// weightSum is the mix's total weight.
func (sp spec) weightSum() int {
	n := 0
	for _, s := range sp.mix {
		n += s.weight
	}
	return n
}

// poolSize bounds the requests of one kind that can be in flight at once:
// every client on a closed loop, and on an open loop twice the arrivals of
// one latency limit (a request resolves within its SLO plus one pass) plus
// a whole burst. Inputs are unique among requests in flight, so a pass lane
// maps back to exactly one request.
func (sp spec) poolSize(weight int) int {
	if !sp.open() {
		return sp.clients + 16
	}
	share := float64(weight) / float64(sp.weightSum())
	return 16 + int(2*sp.rate*share*sp.limit.Seconds()+float64(sp.storm.n)*share+0.5)
}

// group returns the DH group of the spec's width.
func (sp spec) group() dh.Group {
	if sp.bits == 2048 {
		return dh.MODP2048()
	}
	return dh.MODP1024()
}

// pool is one kind's seeded inputs with their scalar-reference answers and
// the free list that keeps each input unique among requests in flight.
type pool struct {
	kind phiwork.Kind
	// w is the workload requests carry: the canonical instance, or the
	// benchmark's timing wrapper around it in a traced run.
	w      phiwork.Workload
	weight int
	ins    []phiwork.Input
	want   []bn.Nat
	free   chan int
	index  map[string]int // inputKey -> position in ins
}

// take blocks until an input is free and returns its index.
func (p *pool) take() int { return <-p.free }

// give returns an input to the free list once its request has resolved.
func (p *pool) give(i int) { p.free <- i }

func inputKey(in phiwork.Input) string {
	return string(in.A.Bytes()) + "|" + string(in.B.Bytes())
}

// workloadFor returns the canonical phiwork instance of kind.
func workloadFor(kind phiwork.Kind, key *rsakit.PrivateKey, g dh.Group) phiwork.Workload {
	switch kind {
	case phiwork.KindRSAPrivate:
		return phiwork.RSAPrivateFor(key)
	case phiwork.KindPSSSign:
		return phiwork.PSSSignFor(key)
	case phiwork.KindPublic:
		return phiwork.RSAPublicFor(&key.PublicKey)
	case phiwork.KindDHEFixed:
		return phiwork.DHEFixedFor(g)
	case phiwork.KindDHEVar:
		return phiwork.DHEVarFor(g)
	}
	panic("perfbench: unknown kind " + string(kind))
}

// makeInputs draws n valid inputs of the workload's kind from rng. ref
// computes the DHE peer publics that dhe-var lanes need.
func makeInputs(rng *rand.Rand, ref engine.Engine, w phiwork.Workload, key *rsakit.PrivateKey, g dh.Group, n int) ([]phiwork.Input, error) {
	rand256 := func() bn.Nat {
		buf := make([]byte, 32)
		rng.Read(buf)
		buf[0] |= 0x80
		return bn.FromBytes(buf)
	}
	ins := make([]phiwork.Input, n)
	for i := range ins {
		switch w.Kind() {
		case phiwork.KindRSAPrivate, phiwork.KindPublic:
			v, err := bn.RandomRange(rng, bn.One(), key.N)
			if err != nil {
				return nil, err
			}
			ins[i] = phiwork.Input{A: v}
		case phiwork.KindPSSSign:
			em, err := rsakit.EncodePSSSHA256(rng, []byte(fmt.Sprintf("perfbench record %d", i)), key.N.BitLen()-1)
			if err != nil {
				return nil, err
			}
			ins[i] = phiwork.Input{A: bn.FromBytes(em)}
		case phiwork.KindDHEFixed:
			ins[i] = phiwork.Input{A: rand256()}
		case phiwork.KindDHEVar:
			peer, err := phiwork.DHEFixedFor(g).ExecuteScalar(ref, phiwork.Input{A: rand256()})
			if err != nil {
				return nil, err
			}
			ins[i] = phiwork.Input{A: rand256(), B: peer}
		}
		if err := w.Validate(ins[i]); err != nil {
			return nil, fmt.Errorf("%s input %d: %w", w.Kind(), i, err)
		}
	}
	return ins, nil
}

// makePools loads the embedded key, draws every kind's inputs from the seed
// and computes their answers on the scalar baseline engine.
func makePools(sp spec, seed int64, tr *tracer) ([]*pool, error) {
	rng := rand.New(rand.NewSource(seed))
	key := bench.FixedKey(sp.bits)
	g := sp.group()
	ref := baseline.NewOpenSSL()
	var pools []*pool
	for _, s := range sp.mix {
		w := workloadFor(s.kind, key, g)
		n := sp.poolSize(s.weight)
		ins, err := makeInputs(rng, ref, w, key, g, n)
		if err != nil {
			return nil, err
		}
		p := &pool{kind: s.kind, w: w, weight: s.weight, ins: ins,
			want: make([]bn.Nat, n), free: make(chan int, n), index: make(map[string]int, n)}
		for i, in := range ins {
			if p.want[i], err = w.ExecuteScalar(ref, in); err != nil {
				return nil, fmt.Errorf("%s reference %d: %w", s.kind, i, err)
			}
			p.index[inputKey(in)] = i
			p.free <- i
		}
		if len(p.index) != n {
			return nil, fmt.Errorf("%s: duplicate inputs drawn", s.kind)
		}
		if tr != nil {
			p.w = &tracedWork{Workload: w, t: tr}
		}
		pools = append(pools, p)
	}
	return pools, nil
}

// layerStats is one snapshot of the serving tier's counters.
type layerStats struct {
	serve        phiserve.Stats // aggregated over cards
	cardDone     []int64        // completions per card
	redispatched int64
}

// stack is the started serving stack a workload drives.
type stack struct {
	// submit is the client's call as a tenant: the door on open loops, the
	// backend on the closed loop, which has no tenants.
	submit func(ctx context.Context, tenant string, w phiwork.Workload, in phiwork.Input) (<-chan phiserve.Result, error)
	// backend is the serving tier below the door.
	backend phiadmit.Backend
	stats   func() layerStats
	close   func()
}

// workers is the number of kernel workers every stack runs: one per vCPU
// of the 2-vCPU host the workloads were sized on.
const workers = 2

// baseTenant is the admission tenant the open loops submit as, and
// stormTenant the one that sends a spec's storms.
const (
	baseTenant  = "bench"
	stormTenant = "storm"
)

// buildStack starts the stack for sp with the direct backend set
// explicitly. The closed loop submits straight to one phiserve server with
// two workers; the open loops go through phiadmit (SLO = limit, the storm's
// SLO for its tenant) into a two-card, one-worker phifleet. A non-nil
// tracer wraps the backend the client or the door calls, timing its
// SubmitWork.
func buildStack(sp spec, tr *tracer) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	if !sp.open() {
		srv, err := phiserve.New(phiserve.Config{Workers: workers, Backend: vpu.BackendDirect})
		if err != nil {
			cancel()
			return nil, err
		}
		srv.Start(ctx)
		var be phiadmit.Backend = srv
		if tr != nil {
			be = &tracedBackend{Backend: srv, t: tr}
		}
		return &stack{
			submit: func(ctx context.Context, _ string, w phiwork.Workload, in phiwork.Input) (<-chan phiserve.Result, error) {
				return be.SubmitWork(ctx, w, in, phiserve.SubmitOpts{})
			},
			backend: be,
			stats: func() layerStats {
				st := srv.Stats()
				return layerStats{serve: st, cardDone: []int64{st.Completed}}
			},
			close: func() { srv.Close(); cancel() },
		}, nil
	}
	f, err := phifleet.New(phifleet.Config{
		Cards:    sp.cards,
		Replicas: 2,
		MaxHops:  3,
		Card: phiserve.Config{
			Workers:      workers / sp.cards,
			QueueDepth:   4,
			FillDeadline: 2 * time.Millisecond,
			Backend:      vpu.BackendDirect,
		},
	})
	if err != nil {
		cancel()
		return nil, err
	}
	f.Start(ctx)
	var be phiadmit.Backend = f
	if tr != nil {
		be = &tracedBackend{Backend: f, t: tr}
	}
	tenants := []phiadmit.Tenant{{ID: baseTenant, Weight: 1}}
	if sp.storm.n > 0 {
		tenants = append(tenants, phiadmit.Tenant{ID: stormTenant, Weight: 1, SLO: sp.storm.slo})
	}
	door := phiadmit.New(be, phiadmit.Config{SLO: sp.limit, Tenants: tenants})
	return &stack{
		submit:  door.SubmitWork,
		backend: be,
		stats: func() layerStats {
			st := f.Stats()
			ls := layerStats{serve: st.Fleet, redispatched: st.Redispatched}
			for _, c := range st.Cards {
				ls.cardDone = append(ls.cardDone, c.Completed)
			}
			return ls
		},
		close: func() { f.Close(); cancel() },
	}, nil
}

// warmUp runs one full 16-lane pass per kind through the backend, checking
// every output, so calibration and lazy set-up finish before timing. It
// bypasses the door, which could shed it on a slow host.
func warmUp(st *stack, pools []*pool) error {
	for _, p := range pools {
		n := phiserve.BatchSize
		if n > len(p.ins) {
			n = len(p.ins)
		}
		chans := make([]<-chan phiserve.Result, n)
		for i := 0; i < n; i++ {
			ch, err := st.backend.SubmitWork(context.Background(), p.w, p.ins[i], phiserve.SubmitOpts{})
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", p.kind, err)
			}
			chans[i] = ch
		}
		for i, ch := range chans {
			res := <-ch
			if res.Err != nil {
				return fmt.Errorf("warm-up %s: %w", p.kind, res.Err)
			}
			if !res.M.Equal(p.want[i]) {
				return fmt.Errorf("warm-up %s lane %d: output differs from the scalar reference", p.kind, i)
			}
		}
	}
	return nil
}
