package dh

import (
	"fmt"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/vbatch"
	"phiopenssl/internal/vpu"
)

// Batch DH exponentiations: sixteen lanes under one group modulus,
// processed with the lane-per-operation kernels of internal/vbatch. Two
// shapes exist because their cost profiles differ (the reason the serving
// tier batches them separately):
//
//   - fixed base: g^x[l] mod P. Every lane shares the base but carries its
//     own short (256-bit) exponent, so the pass uses the masked-scan
//     multi-exponent schedule over at most exponentBits bits — far cheaper
//     than an RSA private op on the same modulus width.
//   - variable base: peer[l]^x[l] mod P. Same exponent schedule, but the
//     bases are attacker-supplied peer publics, so every lane is validated
//     before the pass and every shared secret is checked for degeneracy
//     after it, mirroring the scalar SharedSecret contract.

// BatchSize is the number of lanes per batch call.
const BatchSize = vbatch.BatchSize

// FixedBaseBatchN computes g^x mod P for 1..BatchSize live exponents on the
// backend be. A partial batch charges a full kernel pass (see
// vbatch.Kernels). Exponents must be nonzero. The result is lane-aligned
// with xs.
func FixedBaseBatchN(be vpu.Backend, g Group, xs []bn.Nat) ([]bn.Nat, error) {
	for l, x := range xs {
		if x.IsZero() {
			return nil, fmt.Errorf("dh: batch exponent %d is zero", l)
		}
	}
	if err := vbatch.CheckFill(len(xs)); err != nil {
		return nil, fmt.Errorf("dh: %w", err)
	}
	ctx, err := vbatch.NewKernels(g.P, be)
	if err != nil {
		return nil, fmt.Errorf("dh: batch context: %w", err)
	}
	bases := make([]bn.Nat, len(xs))
	gRed := g.G.Mod(g.P)
	for l := range bases {
		bases[l] = gRed
	}
	return ctx.ModExpMulti(bases, xs), nil
}

// SharedSecretBatchN computes peer[l]^x[l] mod P for 1..BatchSize live
// lanes. Each peer public is validated against the group before the pass
// (CheckPublic) and each shared secret is rejected if degenerate (0, 1 or
// P-1), exactly as scalar SharedSecret does; failing lanes come back as a
// zero Nat with a per-lane error, clean lanes with a nil entry. The second
// return is lane-aligned with xs; the third is the batch-level error under
// which no per-lane results exist.
func SharedSecretBatchN(be vpu.Backend, g Group, xs, peers []bn.Nat) ([]bn.Nat, []error, error) {
	if len(xs) != len(peers) {
		return nil, nil, fmt.Errorf("dh: %d exponents vs %d peer publics", len(xs), len(peers))
	}
	for l, x := range xs {
		if x.IsZero() {
			return nil, nil, fmt.Errorf("dh: batch exponent %d is zero", l)
		}
	}
	if err := vbatch.CheckFill(len(xs)); err != nil {
		return nil, nil, fmt.Errorf("dh: %w", err)
	}
	laneErrs := make([]error, len(xs))
	// Validate peers up front; invalid lanes are masked to the generator so
	// the pass stays well-formed, and their results are withheld.
	masked := make([]bn.Nat, len(peers))
	gRed := g.G.Mod(g.P)
	for l, p := range peers {
		if err := CheckPublic(g, p); err != nil {
			laneErrs[l] = err
			masked[l] = gRed
			continue
		}
		masked[l] = p
	}
	ctx, err := vbatch.NewKernels(g.P, be)
	if err != nil {
		return nil, nil, fmt.Errorf("dh: batch context: %w", err)
	}
	res := ctx.ModExpMulti(masked, xs)
	out := make([]bn.Nat, len(xs))
	pm1 := g.P.SubUint64(1)
	for l := range out {
		if laneErrs[l] != nil {
			continue // masked lane; leave the zero Nat
		}
		s := res[l]
		if s.CmpUint64(1) <= 0 || s.Equal(pm1) {
			laneErrs[l] = fmt.Errorf("dh: degenerate shared secret")
			continue
		}
		out[l] = s
	}
	return out, laneErrs, nil
}
