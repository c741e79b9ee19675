package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/cert"
	"phiopenssl/internal/core"
	"phiopenssl/internal/dh"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiadmit"
	"phiopenssl/internal/phifleet"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
	"phiopenssl/internal/tlssim"
	"phiopenssl/internal/vpu"
)

func init() {
	register(Experiment{ID: "a11", Title: "Workload-generic offload: mixed handshake blend (RSA-KX, DHE, resumption, mTLS)", Run: runA11})
}

// a11Epoch is the fixed certificate-validity instant for the mTLS leg.
const a11Epoch = int64(1_700_000_000)

// a11Kind is one workload lane of the blend: the instance, a full batch of
// precomputed inputs with scalar-reference answers, its measured costs and
// the op count the handshake blend assigns it.
type a11Kind struct {
	w        phiwork.Workload
	ins      []phiwork.Input
	want     []bn.Nat
	scalarCy float64 // one op on the scalar PhiOpenSSL engine
	batchCy  float64 // one full 16-lane vector pass (KNC cycles)
	ops      int
}

// runA11 reproduces the workload-generic pipeline evaluation: a server
// terminating a realistic mix of TLS handshake types (RSA key transport,
// DHE-RSA, session resumption, mutual-TLS-over-DHE) offloads every modular
// exponentiation it performs through the one batching pipeline, each op
// kind on its own lane. Three legs:
//
//  1. blend validation — one real tlssim handshake of each type, server
//     cycles metered, establishing the per-type cost and which workload
//     lanes each type feeds;
//  2. batch economics — for every workload kind, a full 16-lane
//     ExecuteBatch on the vector backend against the per-op scalar engine,
//     lane outputs checked against the scalar reference;
//  3. live pipeline — the blend's full op population driven concurrently
//     through admission (phiadmit) and a two-card fleet (phifleet), every
//     op bit-checked and accounted exactly once per kind (a11Blend.live).
//
// The rendered table is fully deterministic (cycles and counts only);
// the live leg's host wall-clock latencies — where the light public lane
// jumps the heavy backlog — vary per host. BenchmarkA11LightLane times
// them (BENCH_workloads.json's light_lane_isolation_ms), and the
// adversarial starvation bound is TestPublicLaneJumpsHeavyFlood in
// `make workloads`.
func runA11(o Options) *Table {
	b := newA11Blend(o)
	key, group, m := b.key, b.group, machine()

	// Leg 1: one real in-memory handshake per blend type on the PhiOpenSSL
	// server engine.
	rsaCy, err := handshakeCycles(core.New(), key, o.Seed+121)
	if err != nil {
		panic(fmt.Sprintf("bench: RSA-KX handshake failed: %v", err))
	}
	dheCy, err := dheHandshakeCycles(key, group, o.Seed+123)
	if err != nil {
		panic(fmt.Sprintf("bench: DHE handshake failed: %v", err))
	}
	resCy, err := resumedHandshakeCycles(key, o.Seed+125)
	if err != nil {
		panic(fmt.Sprintf("bench: resumed handshake failed: %v", err))
	}
	mtlsCy, err := mtlsDHEHandshakeCycles(key, group, o.Seed+127)
	if err != nil {
		panic(fmt.Sprintf("bench: mTLS-DHE handshake failed: %v", err))
	}

	// Leg 2: scalar cost from the per-op engine, batch cost from a real
	// metered vector pass over the kind's checked inputs.
	for _, k := range b.kinds {
		k.scalarCy = measure(core.New(), func(e engine.Engine) {
			if _, err := k.w.ExecuteScalar(e, k.ins[0]); err != nil {
				panic(err)
			}
		})
		u := vpu.New()
		outs, laneErrs, _, err := k.w.ExecuteBatch(u, k.ins)
		if err != nil {
			panic(fmt.Sprintf("bench: %s batch: %v", k.w.Kind(), err))
		}
		for l := range outs {
			if laneErrs[l] != nil {
				panic(fmt.Sprintf("bench: %s lane %d: %v", k.w.Kind(), l, laneErrs[l]))
			}
			if !outs[l].Equal(k.want[l]) {
				panic(fmt.Sprintf("bench: %s lane %d diverges from scalar reference", k.w.Kind(), l))
			}
		}
		k.batchCy = knc.KNCVectorCosts.VectorCycles(u.Counts())
	}

	// Leg 3: the live pipeline.
	fleetStats, _ := b.live()

	t := &Table{
		ID: "a11",
		Title: fmt.Sprintf("Workload-generic offload pipeline, %d-handshake blend (RSA-%d, %s, 2 cards x 1 worker)",
			b.handshakes, b.bits, group.Name),
		Columns: []string{
			"workload", "class", "ops", "live ok", "scalar cyc/op", "batch cyc/op", "speedup",
		},
	}
	ops := 0
	for _, k := range b.kinds {
		kind := k.w.Kind()
		ws := fleetStats.Fleet.Workloads[kind]
		if ws.Completed != int64(k.ops) {
			panic(fmt.Sprintf("bench: fleet completed %d %s ops, submitted %d", ws.Completed, kind, k.ops))
		}
		ops += k.ops
		perLane := k.batchCy / float64(len(k.ins))
		t.Rows = append(t.Rows, []string{
			string(kind),
			k.w.Class().String(),
			fmt.Sprintf("%d", k.ops),
			fmt.Sprintf("%d", ws.Completed),
			fmt.Sprintf("%.0f", k.scalarCy),
			fmt.Sprintf("%.0f", perLane),
			speedup(k.scalarCy, perLane),
		})
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("blend: %d RSA-KX + %d DHE-RSA + %d resumed + %d mTLS-DHE handshakes over %s",
			b.nRSA, b.nDHE, b.nRes, b.nMTLS, group.Name),
		fmt.Sprintf("per-handshake server cycles (one real tlssim handshake each): RSA-KX %.0f, DHE-RSA %.0f (%.2fx), resumed %.0f, mTLS-DHE %.0f (%.2fx)",
			rsaCy, dheCy, dheCy/rsaCy, resCy, mtlsCy, mtlsCy/rsaCy),
		"op population: RSA-KX -> 1 rsa-priv; DHE and mTLS -> 1 pss-sign (ServerKeyExchange;",
		"the PSS encode is host-side rsakit.EncodePSSSHA256) + 1 dhe-fixed + 1 dhe-var;",
		"mTLS adds 2 public verify lanes (client chain + CertificateVerify); resumed adds none.",
		"'scalar cyc/op' is the per-op engine, 'batch cyc/op' one full 16-lane vector pass / 16,",
		"lane outputs bit-checked against the scalar reference before the live leg runs.",
		fmt.Sprintf("live leg: all %d ops concurrently through phiadmit -> 2-card phifleet, zero shed, exactly-once per-kind accounting from fleet stats", ops),
		"light-lane isolation (public riding the pool's fast lane past the heavy backlog) is host",
		"wall time, recorded out-of-band in BENCH_workloads.json; the adversarial starvation bound",
		"is TestPublicLaneJumpsHeavyFlood in `make workloads`.",
		fmt.Sprintf("full vector pass at %d lanes: rsa-priv %.0f cycles = %.2f ms at 1 worker (%s)",
			phiserve.BatchSize, b.kinds[0].batchCy, 1e3*m.Latency(1, b.kinds[0].batchCy), m.Name))
	return t
}

// a11Blend is A11's op population: the handshake mix, and for each of its
// five workload lanes one full batch of inputs checked against the scalar
// reference. rng carries on from the inputs into each live leg's shuffle.
type a11Blend struct {
	bits                    int
	key                     *rsakit.PrivateKey
	group                   dh.Group
	handshakes              int
	nRSA, nDHE, nMTLS, nRes int
	kinds                   []*a11Kind
	rng                     *rand.Rand
}

// newA11Blend builds the blend for o: RSA-2048 and modp2048 over 96
// handshakes, or RSA-1024 and modp1024 over 48 in quick mode.
func newA11Blend(o Options) *a11Blend {
	b := &a11Blend{rng: rand.New(rand.NewSource(o.Seed + 120))}
	// Quick mode still needs a 1024-bit key: PSS with SHA-256 (32-byte
	// salt) does not fit a 512-bit modulus.
	b.bits, b.group, b.handshakes = 2048, dh.MODP2048(), 96
	if o.Quick {
		b.bits, b.group, b.handshakes = 1024, dh.MODP1024(), 48
	}
	b.key = keyFor(b.bits)

	// The blend: 30% RSA key transport, 30% DHE-RSA, 15% mutual TLS over
	// DHE, the rest resumed. Server-side op population per handshake type:
	// RSA-KX decrypts once (rsa-priv); DHE and mTLS each sign the
	// ServerKeyExchange (pss-sign) and run both DH halves (dhe-fixed g^x,
	// dhe-var peer^x); mTLS additionally verifies the client chain and
	// CertificateVerify (two public ops); resumption skips the tier
	// entirely.
	b.nRSA = b.handshakes * 30 / 100
	b.nDHE = b.handshakes * 30 / 100
	b.nMTLS = b.handshakes * 15 / 100
	b.nRes = b.handshakes - b.nRSA - b.nDHE - b.nMTLS
	b.kinds = []*a11Kind{
		{w: phiwork.RSAPrivateFor(b.key), ops: b.nRSA},
		{w: phiwork.DHEFixedFor(b.group), ops: b.nDHE + b.nMTLS},
		{w: phiwork.DHEVarFor(b.group), ops: b.nDHE + b.nMTLS},
		{w: phiwork.PSSSignFor(b.key), ops: b.nDHE + b.nMTLS},
		{w: phiwork.RSAPublicFor(&b.key.PublicKey), ops: 2 * b.nMTLS},
	}
	ref := baseline.NewOpenSSL()
	for _, k := range b.kinds {
		k.ins = a11Inputs(b.rng, ref, k.w, b.key, b.group)
		k.want = make([]bn.Nat, len(k.ins))
		for i, in := range k.ins {
			want, err := k.w.ExecuteScalar(ref, in)
			if err != nil {
				panic(fmt.Sprintf("bench: %s scalar reference: %v", k.w.Kind(), err))
			}
			k.want[i] = want
		}
	}
	return b
}

// live is A11's live leg: the blend's whole op population, shuffled and
// driven concurrently through the admission door and a two-card fleet —
// the pipeline the hammer gates, here measured. One worker per card keeps
// a real heavy backlog queued (several passes deep), the regime the light
// class's pull priority exists for; the SLO is set far above the backlog
// so nothing sheds. Every result is bit-checked. It returns the fleet's
// stats and each op's host wall latency, from its DoWork call to its
// result, by class.
func (b *a11Blend) live() (phifleet.Stats, map[phiwork.Class][]time.Duration) {
	f, err := phifleet.New(phifleet.Config{
		Cards:    2,
		Replicas: 2,
		MaxHops:  3,
		Card: phiserve.Config{
			Workers:      1,
			QueueDepth:   4,
			FillDeadline: 2 * time.Millisecond,
		},
	})
	if err != nil {
		panic(err)
	}
	f.Start(context.Background())
	ctrl := phiadmit.New(f, phiadmit.Config{
		SLO:     5 * time.Minute,
		Tenants: []phiadmit.Tenant{{ID: "blend", Weight: 1}},
	})

	type liveOp struct {
		k    *a11Kind
		lane int
	}
	var plan []liveOp
	for _, k := range b.kinds {
		for i := 0; i < k.ops; i++ {
			plan = append(plan, liveOp{k: k, lane: i % len(k.ins)})
		}
	}
	b.rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })

	errs := make([]error, len(plan))
	lat := make([]time.Duration, len(plan))
	var wg sync.WaitGroup
	for i, op := range plan {
		wg.Add(1)
		go func(i int, op liveOp) {
			defer wg.Done()
			start := time.Now()
			res, err := ctrl.DoWork(context.Background(), "blend", op.k.w, op.k.ins[op.lane])
			lat[i] = time.Since(start)
			switch {
			case err != nil:
				errs[i] = err
			case res.Err != nil:
				errs[i] = res.Err
			case !res.M.Equal(op.k.want[op.lane]):
				errs[i] = fmt.Errorf("wrong %s result", op.k.w.Kind())
			}
		}(i, op)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			panic(fmt.Sprintf("bench: live op %d (%s): %v", i, plan[i].k.w.Kind(), e))
		}
	}
	st := f.Stats()
	f.Close()
	byClass := make(map[phiwork.Class][]time.Duration)
	for i, op := range plan {
		c := op.k.w.Class()
		byClass[c] = append(byClass[c], lat[i])
	}
	return st, byClass
}

// a11Inputs builds one full batch of valid inputs for the workload kind.
func a11Inputs(rng *rand.Rand, ref engine.Engine, w phiwork.Workload, key *rsakit.PrivateKey, group dh.Group) []phiwork.Input {
	rand256 := func() bn.Nat {
		buf := make([]byte, 32)
		rng.Read(buf)
		buf[0] |= 0x80
		return bn.FromBytes(buf)
	}
	randIn := func(n bn.Nat) bn.Nat {
		v, err := bn.RandomRange(rng, bn.One(), n)
		if err != nil {
			panic(err)
		}
		return v
	}
	ins := make([]phiwork.Input, phiserve.BatchSize)
	for i := range ins {
		switch w.Kind() {
		case phiwork.KindRSAPrivate, phiwork.KindPublic:
			ins[i] = phiwork.Input{A: randIn(key.N)}
		case phiwork.KindPSSSign:
			em, err := rsakit.EncodePSSSHA256(rng, []byte(fmt.Sprintf("a11 blend record %d", i)), key.N.BitLen()-1)
			if err != nil {
				panic(err)
			}
			ins[i] = phiwork.Input{A: bn.FromBytes(em)}
		case phiwork.KindDHEFixed:
			ins[i] = phiwork.Input{A: rand256()}
		case phiwork.KindDHEVar:
			peer, err := phiwork.DHEFixedFor(group).ExecuteScalar(ref, phiwork.Input{A: rand256()})
			if err != nil {
				panic(err)
			}
			ins[i] = phiwork.Input{A: rand256(), B: peer}
		default:
			panic("bench: unknown workload kind " + string(w.Kind()))
		}
		if err := w.Validate(ins[i]); err != nil {
			panic(fmt.Sprintf("bench: %s input %d invalid: %v", w.Kind(), i, err))
		}
	}
	return ins
}

// mtlsDHEHandshakeCycles measures one mutual-TLS-over-DHE handshake on the
// PhiOpenSSL server engine: the DHE-RSA work plus the server-side client
// certificate chain and CertificateVerify checks.
func mtlsDHEHandshakeCycles(key *rsakit.PrivateKey, group dh.Group, seed int64) (float64, error) {
	eng := core.New()
	issuer := baseline.NewOpenSSL()
	certRng := rand.New(rand.NewSource(seed + 2))
	caKey, err := rsakit.GenerateKey(certRng, 512)
	if err != nil {
		return 0, err
	}
	clientKey, err := rsakit.GenerateKey(certRng, 512)
	if err != nil {
		return 0, err
	}
	root, err := cert.SelfSign(issuer, cert.Template{
		Subject: "blend-ca", Serial: 1,
		NotBefore: a11Epoch - 100, NotAfter: a11Epoch + 100,
	}, caKey, rsakit.DefaultPrivateOpts())
	if err != nil {
		return 0, err
	}
	leaf, err := cert.Sign(issuer, cert.Template{
		Subject: "blend-client", Serial: 2,
		NotBefore: a11Epoch - 100, NotAfter: a11Epoch + 100,
	}, &clientKey.PublicKey, "blend-ca", caKey, rsakit.DefaultPrivateOpts())
	if err != nil {
		return 0, err
	}
	cc, sc := net.Pipe()
	defer cc.Close()
	srvCfg := &tlssim.Config{
		Key:               key,
		Rand:              rand.New(rand.NewSource(seed)),
		PrivateOpts:       rsakit.DefaultPrivateOpts(),
		KeyExchange:       tlssim.KXDHE,
		DHGroup:           &group,
		RequireClientCert: true,
		ClientRoots:       []*cert.Certificate{root},
		TimeNow:           func() int64 { return a11Epoch },
	}
	cliCfg := &tlssim.Config{
		ServerPub:   &key.PublicKey,
		Rand:        rand.New(rand.NewSource(seed + 1)),
		KeyExchange: tlssim.KXDHE,
		DHGroup:     &group,
		ClientKey:   clientKey,
		ClientChain: cert.Chain{leaf},
	}
	errc := make(chan error, 1)
	go func() {
		cli, err := tlssim.Client(cc, baseline.NewOpenSSL(), cliCfg)
		if cli != nil {
			cli.Close()
		}
		errc <- err
	}()
	srv, err := tlssim.Server(sc, eng, srvCfg)
	if srv != nil {
		defer srv.Close()
	}
	if cerr := <-errc; err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return eng.Cycles(), nil
}
