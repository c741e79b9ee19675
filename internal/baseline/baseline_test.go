package baseline

import (
	"math/rand"
	"testing"

	"phiopenssl/internal/bn"
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

func TestEnginesCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, e := range []*Engine{NewOpenSSL(), NewMPSS()} {
		for _, bits := range []int{96, 512, 1024} {
			a, b := randBits(rng, bits), randBits(rng, bits)
			n := randOdd(rng, bits)
			exp := randBits(rng, bits)
			if got, want := e.Mul(a, b), a.Mul(b); !got.Equal(want) {
				t.Fatalf("%s Mul: %s != %s", e.Name(), got, want)
			}
			if got, want := e.MulMod(a, b, n), a.ModMul(b, n); !got.Equal(want) {
				t.Fatalf("%s MulMod mismatch", e.Name())
			}
			if got, want := e.ModExp(a, exp, n), a.ModExp(exp, n); !got.Equal(want) {
				t.Fatalf("%s ModExp mismatch", e.Name())
			}
		}
	}
}

func TestNames(t *testing.T) {
	if NewOpenSSL().Name() != "OpenSSL-default" || NewMPSS().Name() != "MPSS-libcrypto" {
		t.Error("engine names wrong")
	}
}

func TestMeterAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewOpenSSL()
	n := randOdd(rng, 512)
	a := randBits(rng, 512)
	e.MulMod(a, a, n)
	if e.Cycles() <= 0 {
		t.Fatal("no cycles charged")
	}
	if e.Counts()[knc.OpMulAdd32] == 0 {
		t.Fatal("no muladds counted")
	}
	e.Reset()
	if e.Cycles() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestEnginesDifferOnlyInCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := randOdd(rng, 1024)
	a, exp := randBits(rng, 1024), randBits(rng, 1024)
	ossl, mpss := NewOpenSSL(), NewMPSS()
	r1 := ossl.ModExp(a, exp, n)
	r2 := mpss.ModExp(a, exp, n)
	if !r1.Equal(r2) {
		t.Fatal("baselines disagree on value")
	}
	if ossl.Counts() != mpss.Counts() {
		t.Fatal("baselines should count identical ops")
	}
	if ossl.Cycles() == mpss.Cycles() {
		t.Fatal("baselines should charge different cycles")
	}
}

func TestMulOpModelShape(t *testing.T) {
	// Below the Karatsuba threshold the model is exactly ka*kb muladds.
	var c knc.ScalarCounts
	mulOpModel(10, 20, &c)
	if c[knc.OpMulAdd32] != 200 {
		t.Fatalf("schoolbook model muladds = %d, want 200", c[knc.OpMulAdd32])
	}
	// Above the threshold Karatsuba must beat schoolbook's n^2.
	var k knc.ScalarCounts
	mulOpModel(512, 512, &k)
	if k[knc.OpMulAdd32] >= 512*512 {
		t.Fatalf("karatsuba model (%d) not cheaper than schoolbook (%d)",
			k[knc.OpMulAdd32], 512*512)
	}
	// Sub-additivity sanity: doubling the size should cost ~3x (the
	// Karatsuba exponent), well below 4x.
	var k2 knc.ScalarCounts
	mulOpModel(1024, 1024, &k2)
	ratio := float64(k2[knc.OpMulAdd32]) / float64(k[knc.OpMulAdd32])
	if ratio < 2.5 || ratio > 3.6 {
		t.Fatalf("karatsuba scaling ratio %.2f", ratio)
	}
	// Zero-size operands charge nothing.
	var z knc.ScalarCounts
	mulOpModel(0, 100, &z)
	if z != (knc.ScalarCounts{}) {
		t.Fatal("zero operand charged ops")
	}
}

func TestMulChargesMeter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := NewMPSS()
	a, b := randBits(rng, 2048), randBits(rng, 2048)
	e.Mul(a, b)
	small := NewMPSS()
	sa, sb := randBits(rng, 128), randBits(rng, 128)
	small.Mul(sa, sb)
	if e.Cycles() <= small.Cycles() {
		t.Fatal("larger multiply should cost more")
	}
}

func TestBadModulusPanics(t *testing.T) {
	e := NewOpenSSL()
	defer func() {
		if recover() == nil {
			t.Error("even modulus should panic")
		}
	}()
	e.MulMod(bn.One(), bn.One(), bn.FromUint64(4))
}
