package rsakit

import (
	"fmt"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/vbatch"
	"phiopenssl/internal/vpu"
)

// Batch private-key operations: sixteen ciphertexts under one key,
// processed with the lane-per-operation (vertical) vector kernels of
// internal/vbatch. This is the throughput-oriented server mode quantified
// by ablation A4 — all sixteen CRT exponentiations mod P run in one kernel
// pass, then all sixteen mod Q, then the recombinations.

// BatchSize is the number of ciphertexts per batch call.
const BatchSize = vbatch.BatchSize

// PrivateOpBatchN computes c^D mod N with CRT for 1..BatchSize live
// ciphertexts, issuing all kernel work on the backend be (a *vpu.Unit for
// interpreted cycle-exact execution, or a *vpu.Direct for the calibrated
// direct-arithmetic serving path). A partial batch charges exactly the
// cycles of a full kernel pass, while the direct backend's host work
// scales with the live lanes (see vbatch.Kernels) — this is the entry
// point a streaming scheduler uses when its fill deadline fires before
// sixteen requests accumulate. Every ciphertext must be in [0, N). The
// result has len(cs) elements, lane-aligned with cs.
func PrivateOpBatchN(be vpu.Backend, key *PrivateKey, cs []bn.Nat) ([]bn.Nat, error) {
	return privateOpBatchN(be, key, cs, nil)
}

// PassBreakdown attributes one verified batch pass for telemetry: the
// instruction deltas the pass issued on the backend (total and per vbatch
// attribution phase — pack/mul/reduce/window/crt) and the host wall time
// spent in its major segments. The wall segments do not tile the whole
// pass (context setup and input reductions fall between them); they exist
// so a trace can show where the *host* time went, while the phase counts
// say where the *simulated cycles* went. The per-phase counts sum to
// Counts exactly.
type PassBreakdown struct {
	Phases [vpu.MaxPhases]vpu.Counts
	Counts vpu.Counts

	ExpPWall      time.Duration // shared-exponent pass mod P
	ExpQWall      time.Duration // shared-exponent pass mod Q
	RecombineWall time.Duration // host-side CRT recombination
	VerifyWall    time.Duration // Bellcore re-encryption + compare
}

func privateOpBatchN(be vpu.Backend, key *PrivateKey, cs []bn.Nat, bd *PassBreakdown) ([]bn.Nat, error) {
	for l, c := range cs {
		if c.Cmp(key.N) >= 0 {
			return nil, fmt.Errorf("rsakit: batch ciphertext %d out of range", l)
		}
	}
	if err := vbatch.CheckFill(len(cs)); err != nil {
		return nil, fmt.Errorf("rsakit: %w", err)
	}
	ctxP, err := vbatch.NewKernels(key.P, be)
	if err != nil {
		return nil, fmt.Errorf("rsakit: batch P context: %w", err)
	}
	ctxQ, err := vbatch.NewKernels(key.Q, be)
	if err != nil {
		return nil, fmt.Errorf("rsakit: batch Q context: %w", err)
	}

	cp := make([]bn.Nat, len(cs))
	cq := make([]bn.Nat, len(cs))
	for l, c := range cs {
		cp[l] = c.Mod(key.P)
		cq[l] = c.Mod(key.Q)
	}
	start := stamp(bd)
	m1 := ctxP.ModExpShared(cp, key.Dp)
	if bd != nil {
		bd.ExpPWall = time.Since(start)
		start = time.Now()
	}
	m2 := ctxQ.ModExpShared(cq, key.Dq)
	if bd != nil {
		bd.ExpQWall = time.Since(start)
		start = time.Now()
	}

	// The recombination is host-side bn arithmetic; bracketing it with
	// PhaseCRT documents (and would surface) any vector work a future
	// recombination strategy adds — today the slot measures zero.
	prev := be.SetPhase(vbatch.PhaseCRT)
	out := make([]bn.Nat, len(cs))
	for l := range out {
		h := key.Qinv.ModMul(m1[l].ModSub(m2[l], key.P), key.P)
		out[l] = m2[l].Add(h.Mul(key.Q))
	}
	be.SetPhase(prev)
	if bd != nil {
		bd.RecombineWall = time.Since(start)
	}
	return out, nil
}

// stamp returns a wall-clock origin only when a breakdown is wanted, so
// the untraced path never calls time.Now.
func stamp(bd *PassBreakdown) time.Time {
	if bd == nil {
		return time.Time{}
	}
	return time.Now()
}

// PrivateOpBatchVerifiedN is PrivateOpBatchN followed by the batch Bellcore
// countermeasure: every lane's result is re-encrypted in one shared-exponent
// vector pass mod N (m^E) and compared against its ciphertext before
// release. Lanes that fail the check — including results a fault pushed out
// of [0, N) — come back as a zero Nat with a per-lane error wrapping
// ErrFaultDetected; clean lanes have a nil entry. The error slice is
// lane-aligned with cs. The second return is the batch-level error
// (malformed inputs), under which no per-lane results exist.
//
// The verification pass runs on the same backend be and is metered there, so
// schedulers charge the countermeasure's cycles to the batch that incurred
// them. A fault striking the verification pass itself can only flag a good
// lane (fail-safe — the caller retries); for it to mask a bad lane the
// corrupted re-encryption would have to collide with the ciphertext.
func PrivateOpBatchVerifiedN(be vpu.Backend, key *PrivateKey, cs []bn.Nat) ([]bn.Nat, []error, error) {
	return privateOpBatchVerifiedN(be, key, cs, nil)
}

// PrivateOpBatchVerifiedTraced is PrivateOpBatchVerifiedN plus a
// PassBreakdown covering exactly this call: the backend's meters are
// snapshotted on entry and the breakdown reports deltas, so the caller
// need not Reset the backend around the pass. This is the entry point the
// streaming scheduler uses when telemetry is on.
func PrivateOpBatchVerifiedTraced(be vpu.Backend, key *PrivateKey, cs []bn.Nat) ([]bn.Nat, []error, *PassBreakdown, error) {
	bd := new(PassBreakdown)
	baseCounts := be.Counts()
	basePhases := be.PhaseCounts()
	out, laneErrs, err := privateOpBatchVerifiedN(be, key, cs, bd)
	cur := be.Counts()
	for i := range cur {
		bd.Counts[i] = cur[i] - baseCounts[i]
	}
	curPhases := be.PhaseCounts()
	for p := range curPhases {
		for i := range curPhases[p] {
			bd.Phases[p][i] = curPhases[p][i] - basePhases[p][i]
		}
	}
	return out, laneErrs, bd, err
}

func privateOpBatchVerifiedN(be vpu.Backend, key *PrivateKey, cs []bn.Nat, bd *PassBreakdown) ([]bn.Nat, []error, error) {
	out, err := privateOpBatchN(be, key, cs, bd)
	if err != nil {
		return nil, nil, err
	}
	start := stamp(bd)
	ctxN, err := vbatch.NewKernels(key.N, be)
	if err != nil {
		return nil, nil, fmt.Errorf("rsakit: batch N context: %w", err)
	}
	laneErrs := make([]error, len(out))
	ms := make([]bn.Nat, len(out))
	for l, m := range out {
		if m.Cmp(key.N) >= 0 {
			// Out of range is already proof of a fault; leave the lane's
			// slot zero so the verification pass stays well-formed.
			laneErrs[l] = fmt.Errorf("%w (lane %d result out of range)", ErrFaultDetected, l)
			continue
		}
		ms[l] = m
	}
	re := ctxN.ModExpShared(ms, key.E)
	for l := range out {
		if laneErrs[l] == nil && !re[l].Equal(cs[l]) {
			laneErrs[l] = fmt.Errorf("%w (lane %d re-encryption mismatch)", ErrFaultDetected, l)
		}
		if laneErrs[l] != nil {
			out[l] = bn.Nat{} // never release a corrupted plaintext
		}
	}
	if bd != nil {
		bd.VerifyWall = time.Since(start)
	}
	return out, laneErrs, nil
}

// PrivateOpBatch computes c^D mod N for sixteen ciphertexts with CRT — a
// thin wrapper over the partial-batch path with all lanes live.
func PrivateOpBatch(be vpu.Backend, key *PrivateKey, cs *[BatchSize]bn.Nat) ([BatchSize]bn.Nat, error) {
	res, err := PrivateOpBatchN(be, key, cs[:])
	if err != nil {
		return [BatchSize]bn.Nat{}, err
	}
	var out [BatchSize]bn.Nat
	copy(out[:], res)
	return out, nil
}
