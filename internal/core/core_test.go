package core

import (
	"math/rand"
	"testing"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/knc"
)

func randOdd(rng *rand.Rand, bits int) bn.Nat {
	nbytes := (bits + 7) / 8
	buf := make([]byte, nbytes)
	rng.Read(buf)
	excess := uint(nbytes*8 - bits)
	buf[0] &= 0xff >> excess
	buf[0] |= 0x80 >> excess
	buf[nbytes-1] |= 1
	return bn.FromBytes(buf)
}

func randBits(rng *rand.Rand, bits int) bn.Nat {
	buf := make([]byte, (bits+7)/8)
	rng.Read(buf)
	return bn.FromBytes(buf)
}

func TestEngineInterfaceResults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := New()
	if e.Name() != "PhiOpenSSL" {
		t.Errorf("Name = %q", e.Name())
	}
	for _, bits := range []int{128, 512, 1024} {
		a, b := randBits(rng, bits), randBits(rng, bits)
		n := randOdd(rng, bits)
		exp := randBits(rng, bits)
		if got, want := e.Mul(a, b), a.Mul(b); !got.Equal(want) {
			t.Fatalf("Mul %d: %s != %s", bits, got, want)
		}
		if got, want := e.MulMod(a, b, n), a.ModMul(b, n); !got.Equal(want) {
			t.Fatalf("MulMod %d: %s != %s", bits, got, want)
		}
		if got, want := e.ModExp(a, exp, n), a.ModExp(exp, n); !got.Equal(want) {
			t.Fatalf("ModExp %d: %s != %s", bits, got, want)
		}
	}
	if got := e.Mul(bn.Zero(), bn.FromUint64(3)); !got.IsZero() {
		t.Errorf("Mul by zero = %s", got)
	}
}

func TestMeterAccumulatesAndResets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := New()
	n := randOdd(rng, 512)
	a := randBits(rng, 512)
	if e.Cycles() != 0 {
		t.Fatal("fresh engine should read zero cycles")
	}
	e.MulMod(a, a, n)
	c1 := e.Cycles()
	if c1 <= 0 {
		t.Fatal("MulMod charged nothing")
	}
	e.MulMod(a, a, n)
	if c2 := e.Cycles(); c2 <= c1 {
		t.Fatalf("meter not accumulating: %g then %g", c1, c2)
	}
	e.Reset()
	if e.Cycles() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestContextCaching(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := New()
	n := randOdd(rng, 512)
	a := randBits(rng, 512)
	e.MulMod(a, a, n)
	e.Reset()
	e.MulMod(a, a, n) // cached ctx: no R^2 recomputation, fewer cycles
	warm := e.Cycles()
	e2 := New()
	e2.MulMod(a, a, n)
	cold := e2.Cycles()
	if warm >= cold {
		t.Fatalf("warm ctx (%g cycles) not cheaper than cold (%g)", warm, cold)
	}
	if len(e.ctxs) != 1 {
		t.Fatalf("ctx cache has %d entries, want 1", len(e.ctxs))
	}
}

func TestOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := randOdd(rng, 512)
	base, exp := randBits(rng, 512), randBits(rng, 512)
	want := base.ModExp(exp, n)
	for _, w := range []int{2, 5} {
		for _, ct := range []bool{true, false} {
			e := New(WithWindow(w), WithConstTime(ct))
			if got := e.ModExp(base, exp, n); !got.Equal(want) {
				t.Fatalf("w=%d ct=%v: %s != %s", w, ct, got, want)
			}
		}
	}
	// Custom cost table scales cycles linearly.
	var doubled knc.VectorCostTable
	for i, v := range knc.KNCVectorCosts {
		doubled[i] = 2 * v
	}
	e1 := New()
	e2 := New(WithVectorCosts(doubled))
	e1.ModExp(base, exp, n)
	e2.ModExp(base, exp, n)
	ratio := e2.Cycles() / e1.Cycles()
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("doubled cost table gave ratio %g", ratio)
	}
}

func TestBadModulusPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("even modulus should panic")
		}
	}()
	e.ModExp(bn.One(), bn.One(), bn.FromUint64(8))
}

// TestPhiBeatsBaselines locks in the paper's headline shape: for Montgomery
// exponentiation the PhiOpenSSL engine must be substantially cheaper in
// simulated cycles than both scalar baselines, with the advantage growing
// with operand size.
func TestPhiBeatsBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	speedupAt := func(bits int) (float64, float64) {
		n := randOdd(rng, bits)
		base, exp := randBits(rng, bits), randBits(rng, bits)
		want := base.ModExp(exp, n)
		run := func(e engine.Engine) float64 {
			if got := e.ModExp(base, exp, n); !got.Equal(want) {
				t.Fatalf("%s wrong result", e.Name())
			}
			return e.Cycles()
		}
		phi := run(New())
		ossl := run(baseline.NewOpenSSL())
		mpss := run(baseline.NewMPSS())
		return ossl / phi, mpss / phi
	}
	s512o, s512m := speedupAt(512)
	s2048o, s2048m := speedupAt(2048)
	for _, s := range []float64{s512o, s512m, s2048o, s2048m} {
		if s <= 1.5 {
			t.Fatalf("PhiOpenSSL speedup only %.2fx (512: %.1f/%.1f, 2048: %.1f/%.1f)",
				s, s512o, s512m, s2048o, s2048m)
		}
	}
	if s2048o <= s512o {
		t.Errorf("speedup should grow with size: 512->%.2fx, 2048->%.2fx", s512o, s2048o)
	}
}
