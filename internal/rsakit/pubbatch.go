package rsakit

import (
	"fmt"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/vbatch"
	"phiopenssl/internal/vpu"
)

// PublicOpBatchN computes m^E mod N for 1..BatchSize live messages on the
// backend be — the batched form of PublicOp, serving signature
// verification and OAEP/PKCS1 encryption lanes. With e = 65537 the shared
// exponent is 17 bits and runs 1-bit windows (20 Montgomery multiplies),
// so a full pass costs a small fraction of a private op on the same
// modulus: this is the cheap lane class the serving tier must never queue
// behind private-op batches. A partial batch charges a full pass; every
// message must be in [0, N). The result is lane-aligned with ms. No
// Bellcore pass follows — public operations use no secret, so a fault can
// only corrupt a value the caller was allowed to see.
func PublicOpBatchN(be vpu.Backend, pub *PublicKey, ms []bn.Nat) ([]bn.Nat, error) {
	for l, m := range ms {
		if m.Cmp(pub.N) >= 0 {
			return nil, fmt.Errorf("rsakit: batch message %d out of range", l)
		}
	}
	if err := vbatch.CheckFill(len(ms)); err != nil {
		return nil, fmt.Errorf("rsakit: %w", err)
	}
	ctx, err := vbatch.NewKernels(pub.N, be)
	if err != nil {
		return nil, fmt.Errorf("rsakit: batch public context: %w", err)
	}
	return ctx.ModExpShared(ms, pub.E), nil
}
