package modexp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/mont"
	"phiopenssl/internal/vmont"
	"phiopenssl/internal/vpu"
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

// multipliers returns one scalar and one vector backend for m.
func multipliers(t *testing.T, m bn.Nat) map[string]Multiplier {
	t.Helper()
	sc, err := mont.NewCtx(m, &knc.ScalarCounts{})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := vmont.NewCtx(m, vpu.New())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Multiplier{"scalar": sc, "vector": vc}
}

func TestStrategiesAgreeWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{64, 512, 1024} {
		m := randOdd(rng, bits)
		base := randBits(rng, bits)
		exp := randBits(rng, bits)
		want := base.ModExp(exp, m)
		for name, mul := range multipliers(t, m) {
			if got := Binary(mul, base, exp); !got.Equal(want) {
				t.Errorf("%s Binary %d bits: got %s want %s", name, bits, got, want)
			}
			for _, w := range []int{1, 2, 4, 5} {
				if got := SlidingWindow(mul, base, exp, w); !got.Equal(want) {
					t.Errorf("%s Sliding w=%d: got %s want %s", name, w, got, want)
				}
				if got := FixedWindow(mul, base, exp, w, false); !got.Equal(want) {
					t.Errorf("%s Fixed w=%d: got %s want %s", name, w, got, want)
				}
				if got := FixedWindow(mul, base, exp, w, true); !got.Equal(want) {
					t.Errorf("%s FixedCT w=%d: got %s want %s", name, w, got, want)
				}
			}
		}
	}
}

func TestExponentEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randOdd(rng, 256)
	base := randBits(rng, 256)
	for name, mul := range multipliers(t, m) {
		// exp = 0 -> 1.
		for _, f := range []func() bn.Nat{
			func() bn.Nat { return Binary(mul, base, bn.Zero()) },
			func() bn.Nat { return SlidingWindow(mul, base, bn.Zero(), 4) },
			func() bn.Nat { return FixedWindow(mul, base, bn.Zero(), 4, true) },
		} {
			if got := f(); !got.IsOne() {
				t.Errorf("%s: x^0 = %s", name, got)
			}
		}
		// exp = 1 -> base mod m.
		if got := FixedWindow(mul, base, bn.One(), 5, true); !got.Equal(base.Mod(m)) {
			t.Errorf("%s: x^1 = %s", name, got)
		}
		// base = 0 -> 0.
		if got := SlidingWindow(mul, bn.Zero(), bn.FromUint64(5), 3); !got.IsZero() {
			t.Errorf("%s: 0^5 = %s", name, got)
		}
		// base = 1 -> 1.
		if got := Binary(mul, bn.One(), randBits(rng, 100)); !got.IsOne() {
			t.Errorf("%s: 1^e = %s", name, got)
		}
		// Base >= modulus must be reduced.
		big := m.Mul(bn.FromUint64(3)).AddUint64(2)
		want := big.ModExp(bn.FromUint64(10), m)
		if got := FixedWindow(mul, big, bn.FromUint64(10), 3, false); !got.Equal(want) {
			t.Errorf("%s: oversized base: %s want %s", name, got, want)
		}
	}
}

func TestExponentStructuredPatterns(t *testing.T) {
	// Exponents that stress window boundaries: all-ones (every window
	// maximal), single bit (one multiply), alternating bits, and runs of
	// zeros crossing window boundaries.
	rng := rand.New(rand.NewSource(3))
	m := randOdd(rng, 512)
	base := randBits(rng, 512)
	exps := []bn.Nat{
		bn.One().Shl(511),                                   // 2^511
		bn.One().Shl(512).SubUint64(1),                      // all ones
		bn.MustHex("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),      // alternating
		bn.MustHex("8000000000000000000000000000000000001"), // sparse
		bn.FromUint64(65537),                                // F4
	}
	for _, e := range exps {
		want := base.ModExp(e, m)
		for name, mul := range multipliers(t, m) {
			for _, w := range []int{1, 3, 5} {
				if got := SlidingWindow(mul, base, e, w); !got.Equal(want) {
					t.Errorf("%s sliding w=%d e=%s", name, w, e)
				}
				if got := FixedWindow(mul, base, e, w, true); !got.Equal(want) {
					t.Errorf("%s fixed w=%d e=%s", name, w, e)
				}
			}
		}
	}
}

func TestWindowValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randOdd(rng, 64)
	mul := multipliers(t, m)["scalar"]
	for _, w := range []int{0, -1, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window %d should panic", w)
				}
			}()
			FixedWindow(mul, bn.One(), bn.One(), w, false)
		}()
	}
}

func TestWindowBitsTable(t *testing.T) {
	cases := map[int]int{1: 1, 10: 1, 17: 1, 23: 1, 24: 3, 79: 3, 80: 4,
		239: 4, 240: 5, 671: 5, 672: 6, 2048: 6}
	for bits, want := range cases {
		if got := WindowBitsForExponent(bits); got != want {
			t.Errorf("WindowBitsForExponent(%d) = %d, want %d", bits, got, want)
		}
	}
}

func TestOptimalWindow(t *testing.T) {
	// Must be monotone non-decreasing in exponent size and land in sane
	// ranges: ~4-5 for 1024-bit, ~5-6 for 2048-4096.
	prev := 0
	for _, bits := range []int{64, 256, 512, 1024, 2048, 4096} {
		w := OptimalWindow(bits)
		if w < prev {
			t.Fatalf("OptimalWindow not monotone at %d bits", bits)
		}
		prev = w
	}
	if w := OptimalWindow(1024); w < 4 || w > 6 {
		t.Errorf("OptimalWindow(1024) = %d", w)
	}
	if w := OptimalWindow(16); w > 3 {
		t.Errorf("OptimalWindow(16) = %d", w)
	}
}

func TestFixedWindowFewerMultsThanBinary(t *testing.T) {
	// The point of windowing: with w=5 a 512-bit exponent costs far fewer
	// multiplications. Verify via the scalar meter.
	rng := rand.New(rand.NewSource(5))
	m := randOdd(rng, 512)
	base := randBits(rng, 512)
	exp := bn.One().Shl(512).SubUint64(1) // worst case for binary

	cost := func(f func(Multiplier)) uint64 {
		var counts knc.ScalarCounts
		ctx, err := mont.NewCtx(m, &counts)
		if err != nil {
			t.Fatal(err)
		}
		f(ctx)
		return counts[knc.OpMulAdd32]
	}
	binaryCost := cost(func(mul Multiplier) { Binary(mul, base, exp) })
	fixedCost := cost(func(mul Multiplier) { FixedWindow(mul, base, exp, 5, false) })
	if fixedCost >= binaryCost {
		t.Fatalf("fixed window (%d muladds) not cheaper than binary (%d)", fixedCost, binaryCost)
	}
	// For the all-ones exponent binary does ~2n mults vs ~n(1+1/w) for
	// fixed: expect at least a 1.3x reduction.
	if ratio := float64(binaryCost) / float64(fixedCost); ratio < 1.3 {
		t.Errorf("window speedup only %.2fx", ratio)
	}
}

func TestConstTimeCostsMore(t *testing.T) {
	// The constant-time table scan must charge more memory traffic than
	// the direct lookup.
	rng := rand.New(rand.NewSource(6))
	m := randOdd(rng, 512)
	base := randBits(rng, 512)
	exp := randBits(rng, 512)
	run := func(ct bool) uint64 {
		var counts knc.ScalarCounts
		ctx, err := mont.NewCtx(m, &counts)
		if err != nil {
			t.Fatal(err)
		}
		FixedWindow(ctx, base, exp, 5, ct)
		return counts[knc.OpMem]
	}
	if ctMem, fastMem := run(true), run(false); ctMem <= fastMem {
		t.Fatalf("const-time mem %d <= fast mem %d", ctMem, fastMem)
	}
}

// Property: all strategies agree with each other on random inputs over a
// fixed modulus (both backends).
func TestQuickStrategyAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randOdd(rng, 192)
	muls := multipliers(t, m)
	f := func(baseB, expB []byte, wRaw uint8) bool {
		base := bn.FromBytes(baseB)
		exp := bn.FromBytes(expB)
		w := 1 + int(wRaw)%6
		want := base.ModExp(exp, m)
		for _, mul := range muls {
			if !Binary(mul, base, exp).Equal(want) {
				return false
			}
			if !SlidingWindow(mul, base, exp, w).Equal(want) {
				return false
			}
			if !FixedWindow(mul, base, exp, w, true).Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
