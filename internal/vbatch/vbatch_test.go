package vbatch

import (
	"math/rand"
	"testing"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/vmont"
	"phiopenssl/internal/vpu"
)

func randOdd(rng *rand.Rand, bits int) bn.Nat {
	buf := make([]byte, (bits+7)/8)
	rng.Read(buf)
	excess := uint(len(buf)*8 - bits)
	buf[0] &= 0xff >> excess
	buf[0] |= 0x80 >> excess
	buf[len(buf)-1] |= 1
	return bn.FromBytes(buf)
}

func randBelow(rng *rand.Rand, m bn.Nat) bn.Nat {
	for {
		buf := make([]byte, (m.BitLen()+7)/8)
		rng.Read(buf)
		x := bn.FromBytes(buf)
		if x.Cmp(m) < 0 {
			return x
		}
	}
}

func randBatch(rng *rand.Rand, m bn.Nat) [BatchSize]bn.Nat {
	var out [BatchSize]bn.Nat
	for l := range out {
		out[l] = randBelow(rng, m)
	}
	return out
}

func TestNewCtxValidation(t *testing.T) {
	for _, m := range []bn.Nat{bn.Zero(), bn.One(), bn.FromUint64(4)} {
		if _, err := NewCtx(m, vpu.New()); err == nil {
			t.Errorf("NewCtx(%s) should fail", m)
		}
	}
	ctx, err := NewCtx(bn.MustHex("10001"), vpu.New())
	if err != nil {
		t.Fatal(err)
	}
	if ctx.K() != 1 {
		t.Errorf("K = %d (batch layout needs no padding)", ctx.K())
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{33, 512, 1000} {
		m := randOdd(rng, bits)
		ctx, err := NewCtx(m, vpu.New())
		if err != nil {
			t.Fatal(err)
		}
		vals := randBatch(rng, m)
		back := ctx.Unpack(ctx.Pack(&vals))
		for l := range vals {
			if !back[l].Equal(vals[l]) {
				t.Fatalf("lane %d round trip: %s -> %s", l, vals[l], back[l])
			}
		}
	}
}

func TestPackRejectsUnreduced(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randOdd(rng, 128)
	ctx, _ := NewCtx(m, vpu.New())
	var vals [BatchSize]bn.Nat
	vals[3] = m // == modulus: not reduced
	defer func() {
		if recover() == nil {
			t.Error("Pack of unreduced operand should panic")
		}
	}()
	ctx.Pack(&vals)
}

func TestSplat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randOdd(rng, 256)
	ctx, _ := NewCtx(m, vpu.New())
	x := randBelow(rng, m)
	vals := ctx.Unpack(ctx.Splat(x))
	for l := range vals {
		if !vals[l].Equal(x) {
			t.Fatalf("lane %d splat = %s", l, vals[l])
		}
	}
}

func TestBatchMulMatchesReferencePerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, bits := range []int{64, 512, 1024, 2048} {
		m := randOdd(rng, bits)
		ctx, err := NewCtx(m, vpu.New())
		if err != nil {
			t.Fatal(err)
		}
		a := randBatch(rng, m)
		b := randBatch(rng, m)
		am := ctx.ToMont(ctx.Pack(&a))
		bm := ctx.ToMont(ctx.Pack(&b))
		got := ctx.Unpack(ctx.FromMont(ctx.Mul(am, bm)))
		for l := 0; l < BatchSize; l++ {
			want := a[l].ModMul(b[l], m)
			if !got[l].Equal(want) {
				t.Fatalf("%d bits lane %d: got %s want %s", bits, l, got[l], want)
			}
		}
	}
}

func TestBatchMulNearModulusLanes(t *testing.T) {
	// Each lane stresses a different edge value simultaneously.
	rng := rand.New(rand.NewSource(5))
	m := randOdd(rng, 512)
	ctx, _ := NewCtx(m, vpu.New())
	var a, b [BatchSize]bn.Nat
	edges := []bn.Nat{bn.Zero(), bn.One(), m.SubUint64(1), m.SubUint64(2)}
	for l := 0; l < BatchSize; l++ {
		a[l] = edges[l%len(edges)]
		b[l] = edges[(l/4)%len(edges)]
	}
	got := ctx.Unpack(ctx.FromMont(ctx.Mul(ctx.ToMont(ctx.Pack(&a)), ctx.ToMont(ctx.Pack(&b)))))
	for l := 0; l < BatchSize; l++ {
		want := a[l].ModMul(b[l], m)
		if !got[l].Equal(want) {
			t.Fatalf("lane %d: a=%s b=%s got %s want %s", l, a[l], b[l], got[l], want)
		}
	}
}

func TestBatchResultsFullyReduced(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		m := randOdd(rng, 96+rng.Intn(300))
		ctx, _ := NewCtx(m, vpu.New())
		a := randBatch(rng, m)
		got := ctx.Unpack(ctx.Mul(ctx.ToMont(ctx.Pack(&a)), ctx.ToMont(ctx.Pack(&a))))
		for l, v := range got {
			if v.Cmp(m) >= 0 {
				t.Fatalf("lane %d unreduced: %s >= %s", l, v, m)
			}
		}
	}
}

func TestBatchWidthMismatchPanics(t *testing.T) {
	ctx, _ := NewCtx(bn.MustHex("f1"), vpu.New())
	defer func() {
		if recover() == nil {
			t.Error("width mismatch should panic")
		}
	}()
	ctx.Mul(make(Batch, 5), make(Batch, 1))
}

func TestModExpSharedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bits := range []int{128, 512} {
		m := randOdd(rng, bits)
		ctx, err := NewCtx(m, vpu.New())
		if err != nil {
			t.Fatal(err)
		}
		bases := randBatch(rng, m)
		exp := randBelow(rng, m)
		got := ctx.ModExpShared(bases[:], exp)
		for l := 0; l < BatchSize; l++ {
			want := bases[l].ModExp(exp, m)
			if !got[l].Equal(want) {
				t.Fatalf("%d bits lane %d mismatch", bits, l)
			}
		}
	}
}

func TestModExpSharedEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randOdd(rng, 128)
	ctx, _ := NewCtx(m, vpu.New())
	bases := randBatch(rng, m)
	// exp = 0 -> all ones.
	for l, v := range ctx.ModExpShared(bases[:], bn.Zero()) {
		if !v.IsOne() {
			t.Fatalf("lane %d: x^0 = %s", l, v)
		}
	}
	// exp = 1 -> identity.
	for l, v := range ctx.ModExpShared(bases[:], bn.One()) {
		if !v.Equal(bases[l]) {
			t.Fatalf("lane %d: x^1 = %s, want %s", l, v, bases[l])
		}
	}
	// Oversized bases are reduced.
	var big [BatchSize]bn.Nat
	for l := range big {
		big[l] = bases[l].Add(m.MulUint32(3))
	}
	got := ctx.ModExpShared(big[:], bn.FromUint64(7))
	for l := range got {
		want := big[l].ModExp(bn.FromUint64(7), m)
		if !got[l].Equal(want) {
			t.Fatalf("lane %d oversized base mismatch", l)
		}
	}
}

// TestBatchThroughputBeatsHorizontal locks in the A4 result: per-operation
// instruction cost of the batch kernel must undercut the horizontal
// (vmont) kernel for the shared-modulus multiplication workload.
func TestBatchThroughputBeatsHorizontal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randOdd(rng, 1024)

	// Horizontal: one montmul on the vmont kernel.
	uh := vpu.New()
	hctx, err := vmont.NewCtx(m, uh)
	if err != nil {
		t.Fatal(err)
	}
	a := hctx.ToMont(randBelow(rng, m))
	uh.Reset()
	hctx.Mul(a, a)
	horizontal := float64(uh.Counts().Total())

	// Batch: sixteen montmuls in one kernel pass.
	ub := vpu.New()
	bctx, err := NewCtx(m, ub)
	if err != nil {
		t.Fatal(err)
	}
	vals := randBatch(rng, m)
	am := bctx.ToMont(bctx.Pack(&vals))
	ub.Reset()
	bctx.Mul(am, am)
	perOp := float64(ub.Counts().Total()) / BatchSize

	if perOp >= horizontal {
		t.Fatalf("batch per-op instructions %.0f not below horizontal %.0f", perOp, horizontal)
	}
}

func TestModExpMultiMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, bits := range []int{128, 512} {
		m := randOdd(rng, bits)
		ctx, err := NewCtx(m, vpu.New())
		if err != nil {
			t.Fatal(err)
		}
		bases := randBatch(rng, m)
		var exps [BatchSize]bn.Nat
		for l := range exps {
			exps[l] = randBelow(rng, m)
		}
		got := ctx.ModExpMulti(bases[:], exps[:])
		for l := 0; l < BatchSize; l++ {
			want := bases[l].ModExp(exps[l], m)
			if !got[l].Equal(want) {
				t.Fatalf("%d bits lane %d: per-lane exponent mismatch", bits, l)
			}
		}
	}
}

func TestModExpMultiMixedLengths(t *testing.T) {
	// Lanes with wildly different exponent lengths, including zero and
	// one, must all be correct despite the shared window schedule.
	rng := rand.New(rand.NewSource(11))
	m := randOdd(rng, 256)
	ctx, _ := NewCtx(m, vpu.New())
	bases := randBatch(rng, m)
	var exps [BatchSize]bn.Nat
	exps[0] = bn.Zero()
	exps[1] = bn.One()
	exps[2] = bn.FromUint64(2)
	exps[3] = bn.One().Shl(255)
	for l := 4; l < BatchSize; l++ {
		exps[l] = randBelow(rng, bn.One().Shl(uint(8*l)))
	}
	got := ctx.ModExpMulti(bases[:], exps[:])
	for l := 0; l < BatchSize; l++ {
		want := bases[l].ModExp(exps[l], m)
		if !got[l].Equal(want) {
			t.Fatalf("lane %d (%d-bit exponent): mismatch", l, exps[l].BitLen())
		}
	}
}

func TestModExpMultiAllZero(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randOdd(rng, 96)
	ctx, _ := NewCtx(m, vpu.New())
	bases := randBatch(rng, m)
	var exps [BatchSize]bn.Nat
	for l, v := range ctx.ModExpMulti(bases[:], exps[:]) {
		if !v.IsOne() {
			t.Fatalf("lane %d: x^0 = %s", l, v)
		}
	}
}
