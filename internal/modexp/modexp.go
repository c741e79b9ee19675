// Package modexp implements modular exponentiation strategies over a
// pluggable Montgomery multiplier.
//
// Three strategies are provided, matching the systems compared in the
// paper:
//
//   - Binary: left-to-right square-and-multiply, the naive baseline.
//   - SlidingWindow: the odd-powers sliding window used by OpenSSL's
//     BN_mod_exp_mont.
//   - FixedWindow: the fixed-width window the paper selects for
//     PhiOpenSSL, with an optional constant-time full-table scan
//     (scatter/gather) for the multiplicand lookup.
//
// Each strategy is generic over the Multiplier interface, so the same
// strategy code runs on the scalar baseline kernel (internal/mont) and the
// vectorized PhiOpenSSL kernel (internal/vmont). Experiment E4 compares
// engines; E8 sweeps the fixed-window width.
package modexp

import "phiopenssl/internal/bn"

// Multiplier is a Montgomery multiplication backend for a fixed odd
// modulus. Implementations: *mont.Ctx (scalar, metered in scalar ops) and
// *vmont.Ctx (vectorized, metered in vpu instructions).
type Multiplier interface {
	// K returns the limb width of Montgomery-form values.
	K() int
	// Modulus returns the modulus N.
	Modulus() bn.Nat
	// Mul returns the Montgomery product of two k-limb values < N.
	Mul(a, b []uint32) []uint32
	// Sqr returns the Montgomery square of a k-limb value < N.
	Sqr(a []uint32) []uint32
	// ToMont converts a Nat into Montgomery form.
	ToMont(x bn.Nat) []uint32
	// FromMont converts a Montgomery-form value back to a Nat.
	FromMont(a []uint32) bn.Nat
	// One returns the Montgomery form of 1 (R mod N).
	One() []uint32
}

// TableScanner is implemented by multipliers that support a constant-time
// table lookup whose cost is charged to their meter.
type TableScanner interface {
	ScanTable(table [][]uint32, idx int) []uint32
}

// Binary computes base^exp mod N by left-to-right square-and-multiply.
func Binary(m Multiplier, base, exp bn.Nat) bn.Nat {
	if exp.IsZero() {
		return bn.One().Mod(m.Modulus())
	}
	baseM := m.ToMont(base)
	acc := baseM // top bit is always 1
	for i := exp.BitLen() - 2; i >= 0; i-- {
		acc = m.Sqr(acc)
		if exp.Bit(i) == 1 {
			acc = m.Mul(acc, baseM)
		}
	}
	return m.FromMont(acc)
}

// SlidingWindow computes base^exp mod N with the odd-powers sliding window
// of width w (1 <= w <= 10). This is the strategy of OpenSSL's
// BN_mod_exp_mont: it precomputes base^1, base^3, ..., base^(2^w - 1) and
// consumes maximal odd windows of the exponent.
func SlidingWindow(m Multiplier, base, exp bn.Nat, w int) bn.Nat {
	checkWindow(w)
	if exp.IsZero() {
		return bn.One().Mod(m.Modulus())
	}
	// Precompute odd powers g[i] = base^(2i+1).
	g := make([][]uint32, 1<<(w-1))
	g[0] = m.ToMont(base)
	if len(g) > 1 {
		b2 := m.Sqr(g[0])
		for i := 1; i < len(g); i++ {
			g[i] = m.Mul(g[i-1], b2)
		}
	}

	var acc []uint32
	started := false
	i := exp.BitLen() - 1
	for i >= 0 {
		if exp.Bit(i) == 0 {
			if started {
				acc = m.Sqr(acc)
			}
			i--
			continue
		}
		// Find the largest window [l, i] with an odd low bit.
		l := i - w + 1
		if l < 0 {
			l = 0
		}
		for exp.Bit(l) == 0 {
			l++
		}
		val := exp.Bits(l, i-l+1)
		if started {
			for s := 0; s <= i-l; s++ {
				acc = m.Sqr(acc)
			}
			acc = m.Mul(acc, g[(val-1)/2])
		} else {
			acc = g[(val-1)/2]
			started = true
		}
		i = l - 1
	}
	return m.FromMont(acc)
}

// FixedWindow computes base^exp mod N with fixed windows of width w
// (1 <= w <= 10), the strategy PhiOpenSSL selects: the exponent is consumed
// in aligned w-bit digits with exactly w squarings plus one multiplication
// per digit, giving the regular instruction stream the Phi's in-order
// pipeline wants.
//
// With constTime set, the multiplicand is fetched with a full-table scan
// (TableScanner when available) and the multiplication is performed for
// every digit including zero digits, making the operation sequence
// independent of the exponent — the hardening OpenSSL applies to private
// keys, which the paper keeps.
func FixedWindow(m Multiplier, base, exp bn.Nat, w int, constTime bool) bn.Nat {
	checkWindow(w)
	if exp.IsZero() {
		return bn.One().Mod(m.Modulus())
	}
	table := make([][]uint32, 1<<w)
	table[0] = m.One()
	table[1] = m.ToMont(base)
	for i := 2; i < len(table); i++ {
		table[i] = m.Mul(table[i-1], table[1])
	}

	scanner, canScan := m.(TableScanner)
	lookup := func(idx int) []uint32 {
		if constTime && canScan {
			return scanner.ScanTable(table, idx)
		}
		return table[idx]
	}

	windows := (exp.BitLen() + w - 1) / w
	acc := lookup(int(exp.Bits((windows-1)*w, w)))
	for wi := windows - 2; wi >= 0; wi-- {
		for s := 0; s < w; s++ {
			acc = m.Sqr(acc)
		}
		digit := int(exp.Bits(wi*w, w))
		if constTime {
			acc = m.Mul(acc, lookup(digit))
		} else if digit != 0 {
			acc = m.Mul(acc, table[digit])
		}
	}
	return m.FromMont(acc)
}

// Ladder computes base^exp mod N with the Montgomery powering ladder: one
// multiplication and one squaring per exponent bit with a data-independent
// dependency structure. It is the maximally regular (and slowest)
// constant-time strategy — the E8-adjacent reference point below w=1
// fixed windows.
func Ladder(m Multiplier, base, exp bn.Nat) bn.Nat {
	if exp.IsZero() {
		return bn.One().Mod(m.Modulus())
	}
	r0 := m.One()
	r1 := m.ToMont(base)
	for i := exp.BitLen() - 1; i >= 0; i-- {
		if exp.Bit(i) == 0 {
			r1 = m.Mul(r0, r1)
			r0 = m.Sqr(r0)
		} else {
			r0 = m.Mul(r0, r1)
			r1 = m.Sqr(r1)
		}
	}
	return m.FromMont(r0)
}

// checkWindow validates a window width.
func checkWindow(w int) {
	if w < 1 || w > 10 {
		panic("modexp: window width out of range [1,10]")
	}
}

// WindowBitsForExponent is OpenSSL's BN_window_bits_for_exponent_size
// table: the window width for an exponent of the given bit length. The
// scalar baselines run it as their sliding-window width; the batch kernels
// (internal/vbatch) size their shared-exponent fixed window with it.
func WindowBitsForExponent(bits int) int {
	switch {
	case bits > 671:
		return 6
	case bits > 239:
		return 5
	case bits > 79:
		return 4
	case bits > 23:
		return 3
	default:
		return 1
	}
}

// OptimalWindow returns the fixed-window width minimizing multiplication
// count for an exponent of the given bit length: the classical
// argmin_w { 2^w + bits/w } schedule. It is not OpenSSL's table
// (WindowBitsForExponent): at 17 bits it picks 2 where OpenSSL picks 1.
func OptimalWindow(bits int) int {
	best, bestCost := 1, 1<<63-1
	for w := 1; w <= 7; w++ {
		cost := 1<<w + bits + bits/w
		if cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best
}
