package vbatch

import (
	"phiopenssl/internal/bn"
	"phiopenssl/internal/modexp"
	"phiopenssl/internal/vpu"
)

// maxSharedWindow caps ModExpShared's window width.
const maxSharedWindow = 5

// sharedWindow returns ModExpShared's fixed-window width for an exponent
// of the given bit length: OpenSSL's table (modexp.WindowBitsForExponent)
// capped at maxSharedWindow. A public exponent such as 65537 gets 1-bit
// windows (a 2-entry table, one multiply per set bit); every exponent of
// 240 bits or more — RSA CRT exponents from 512-bit keys up — gets 5.
func sharedWindow(bits int) int {
	return min(modexp.WindowBitsForExponent(bits), maxSharedWindow)
}

// ModExpShared computes base[l]^exp mod N for the 1..BatchSize live lanes
// in one sixteen-lane pass, with one exponent shared across lanes — the
// RSA-server case, where every private operation under the same key
// raises to the same (CRT) exponent. Fixed windows sized to the exponent
// (sharedWindow); because the exponent is shared, the window schedule is
// identical in every lane and the operation sequence is inherently
// exponent-uniform across the batch.
func (c *Ctx) ModExpShared(bases []bn.Nat, exp bn.Nat) []bn.Nat {
	mustFill(len(bases))
	if exp.IsZero() {
		return ones(len(bases), c.modulus)
	}
	xm := c.ToMont(c.Pack(padLanes(reduce(bases, c.modulus))))

	w := sharedWindow(exp.BitLen())
	table := make([]Batch, 1<<w)
	table[0] = c.One()
	table[1] = xm
	for i := 2; i < len(table); i++ {
		table[i] = c.Mul(table[i-1], xm)
	}

	// With a shared exponent the window lookup is direct indexing into the
	// table — it issues no vector instructions, so PhaseWindow stays at
	// zero here. That is the point of the shared-exponent schedule, and
	// the per-phase meters make it visible against ModExpMulti's scan.
	windows := (exp.BitLen() + w - 1) / w
	acc := table[exp.Bits((windows-1)*w, w)]
	for wi := windows - 2; wi >= 0; wi-- {
		for s := 0; s < w; s++ {
			acc = c.Sqr(acc)
		}
		if d := exp.Bits(wi*w, w); d != 0 {
			acc = c.Mul(acc, table[d])
		}
	}
	out := c.Unpack(c.FromMont(acc))
	return out[:len(bases)]
}

// ModExpMulti computes base[l]^exp[l] mod N with an independent exponent
// per lane. The window schedule runs to the longest exponent; each digit's
// multiplicand is selected per lane with a masked scan over the window
// table (every lane multiplies every window, including zero digits, so the
// schedule is uniform — the batch analogue of the constant-time fixed
// window). Needed when lanes carry different keys' blinding factors or
// mixed workloads. Dead lanes repeat the last live exponent, so the
// schedule length and the scan's matched entries are the live lanes'.
func (c *Ctx) ModExpMulti(bases, exps []bn.Nat) []bn.Nat {
	mustPair(bases, exps)
	mustFill(len(bases))
	u := c.unit
	maxBits := maxBitLen(exps)
	if maxBits == 0 {
		return ones(len(bases), c.modulus)
	}
	xm := c.ToMont(c.Pack(padLanes(reduce(bases, c.modulus))))
	padded := padLanes(exps)

	const w = 4
	table := make([]Batch, 1<<w)
	table[0] = c.One()
	table[1] = xm
	for i := 2; i < len(table); i++ {
		table[i] = c.Mul(table[i-1], xm)
	}

	// selectEntries builds the per-lane multiplicand: lane l takes
	// table[digit_l], assembled with one compare+blend pass per entry.
	selectEntries := func(digits vpu.Vec) Batch {
		prev := u.SetPhase(PhaseWindow)
		defer u.SetPhase(prev)
		out := make(Batch, c.k)
		for e := range table {
			ev := u.Broadcast(uint32(e))
			mask := u.CmpEq(digits, ev)
			if mask == 0 {
				continue
			}
			for j := 0; j < c.k; j++ {
				out[j] = u.Blend(mask, out[j], table[e][j])
			}
		}
		return out
	}
	digitsAt := func(wi int) vpu.Vec {
		prev := u.SetPhase(PhaseWindow)
		defer u.SetPhase(prev)
		var d vpu.Vec
		for l, e := range padded {
			d[l] = e.Bits(wi*w, w)
		}
		return u.Load(d[:], 0) // the digit vector arrives from memory
	}

	windows := (maxBits + w - 1) / w
	acc := selectEntries(digitsAt(windows - 1))
	for wi := windows - 2; wi >= 0; wi-- {
		for s := 0; s < w; s++ {
			acc = c.Sqr(acc)
		}
		acc = c.Mul(acc, selectEntries(digitsAt(wi)))
	}
	out := c.Unpack(c.FromMont(acc))
	return out[:len(bases)]
}

// reduce returns each live operand reduced mod m.
func reduce(vals []bn.Nat, m bn.Nat) []bn.Nat {
	out := make([]bn.Nat, len(vals))
	for l, v := range vals {
		out[l] = v.Mod(m)
	}
	return out
}

// ones returns n copies of 1 mod m: any base to the zero exponent.
func ones(n int, m bn.Nat) []bn.Nat {
	out := make([]bn.Nat, n)
	one := bn.One().Mod(m)
	for l := range out {
		out[l] = one
	}
	return out
}

// maxBitLen returns the longest exponent's bit length, which sets the
// per-lane window schedule's length.
func maxBitLen(exps []bn.Nat) int {
	maxBits := 0
	for _, e := range exps {
		if e.BitLen() > maxBits {
			maxBits = e.BitLen()
		}
	}
	return maxBits
}
