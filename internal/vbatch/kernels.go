package vbatch

import (
	"fmt"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/vpu"
)

// Kernels is the backend-independent surface of the batch kernel family:
// up to sixteen lane-parallel Montgomery operations under one modulus.
// Every method takes the 1..BatchSize live operands as slices (a fill
// outside that range panics; see CheckFill) and returns one result per
// live lane. A partial batch charges exactly one full 16-lane pass on
// both backends — the card pays for the whole vector whatever its fill.
// The two implementations compute bit-identical results and charge
// bit-identical instruction counts:
//
//   - *Ctx (on a *vpu.Unit): the interpreted kernels above, executing and
//     metering every vector instruction. It pads the dead lanes with the
//     last live operand and runs the full 16-lane stream.
//   - directCtx (on a *vpu.Direct): per-lane arithmetic on 64-bit host
//     words for the live lanes only, replaying the same CIOS/fixed-window
//     schedule event by event (with R = 2^(32k), so every Montgomery value
//     matches the sim's) and charging each event's full-pass cost from a
//     per-limb-count calibration measured once against the sim (see
//     direct.go). Its host time scales with the fill.
type Kernels interface {
	// K returns the limb width of batch values.
	K() int
	// Modulus returns N.
	Modulus() bn.Nat
	// Backend returns the meter the kernels charge.
	Backend() vpu.Backend
	// MontMul returns the lane-wise Montgomery product a*b*R^-1 mod N of
	// reduced operands (each < N, len(a) == len(b)), via one
	// pack/multiply/unpack round trip.
	MontMul(a, b []bn.Nat) []bn.Nat
	// ModExpShared computes base[l]^exp mod N with one exponent shared
	// across lanes (the RSA-server schedule).
	ModExpShared(bases []bn.Nat, exp bn.Nat) []bn.Nat
	// ModExpMulti computes base[l]^exp[l] mod N with an independent
	// exponent per lane (uniform masked-scan window schedule;
	// len(bases) == len(exps)).
	ModExpMulti(bases, exps []bn.Nat) []bn.Nat
}

// NewKernels prepares batch kernels for the odd modulus m > 1 on the given
// backend, charging the context-setup constants (the sim's NewCtx
// broadcasts) on it.
func NewKernels(m bn.Nat, be vpu.Backend) (Kernels, error) {
	switch b := be.(type) {
	case *vpu.Unit:
		return NewCtx(m, b)
	case *vpu.Direct:
		return newDirectCtx(m, b)
	default:
		return nil, fmt.Errorf("vbatch: unsupported backend %T", be)
	}
}

// Backend implements Kernels for the interpreted context.
func (c *Ctx) Backend() vpu.Backend { return c.unit }

// MontMul implements Kernels for the interpreted context.
func (c *Ctx) MontMul(a, b []bn.Nat) []bn.Nat {
	mustPair(a, b)
	out := c.Unpack(c.Mul(c.Pack(padLanes(a)), c.Pack(padLanes(b))))
	return out[:len(a)]
}

// mustPair panics unless two operand slices have the same length.
func mustPair(a, b []bn.Nat) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vbatch: %d vs %d operands", len(a), len(b)))
	}
}

var _ Kernels = (*Ctx)(nil)
