package phiwork_test

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"testing"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/dh"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/rsakit"
	"phiopenssl/internal/vbatch"
	"phiopenssl/internal/vpu"
)

// The satellite differential suite: every workload's batch path must be
// bit-identical to its scalar internal/dh / internal/rsakit reference at
// 1024 and 2048 bits, on both the interpreted sim backend and the
// calibrated direct backend.

var (
	diffKey1024 = mustKey(1024)
	diffKey2048 = mustKey(2048)
)

func mustKey(bits int) *rsakit.PrivateKey {
	rng := mrand.New(mrand.NewSource(int64(bits)))
	k, err := rsakit.GenerateKey(rng, bits)
	if err != nil {
		panic(err)
	}
	return k
}

func backends(t *testing.T) map[string]func() vpu.Backend {
	t.Helper()
	return map[string]func() vpu.Backend{
		"sim":    func() vpu.Backend { return vpu.NewBackend(vpu.BackendSim) },
		"direct": func() vpu.Backend { return vpu.NewBackend(vpu.BackendDirect) },
	}
}

func keyCases() map[string]*rsakit.PrivateKey {
	return map[string]*rsakit.PrivateKey{"1024": diffKey1024, "2048": diffKey2048}
}

func groupCases() map[string]dh.Group {
	return map[string]dh.Group{"1024": dh.MODP1024(), "2048": dh.MODP2048()}
}

// checkBatchVsScalar runs w's batch path on a fresh backend and its scalar
// path on a fresh engine for the same inputs and requires equal outputs
// and agreeing per-lane errors.
func checkBatchVsScalar(t *testing.T, w phiwork.Workload, ins []phiwork.Input, mkBackend func() vpu.Backend) {
	t.Helper()
	out, laneErrs, bd, err := w.ExecuteBatch(mkBackend(), ins)
	if err != nil {
		t.Fatalf("ExecuteBatch: %v", err)
	}
	if len(out) != len(ins) || len(laneErrs) != len(ins) {
		t.Fatalf("lane alignment: %d outputs, %d errors, %d inputs", len(out), len(laneErrs), len(ins))
	}
	if bd == nil {
		t.Fatal("ExecuteBatch returned a nil breakdown")
	}
	var total uint64
	for _, c := range bd.Counts {
		total += c
	}
	if total == 0 {
		t.Error("breakdown charged zero instructions for a live pass")
	}
	eng := baseline.NewMPSS()
	for l, in := range ins {
		want, scalarErr := w.ExecuteScalar(eng, in)
		if (scalarErr != nil) != (laneErrs[l] != nil) {
			t.Fatalf("lane %d: scalar err %v vs batch lane err %v", l, scalarErr, laneErrs[l])
		}
		if scalarErr != nil {
			continue
		}
		if !out[l].Equal(want) {
			t.Fatalf("lane %d: batch output diverges from scalar reference", l)
		}
	}
}

func TestRSAPrivateDifferential(t *testing.T) {
	for bits, key := range keyCases() {
		for name, mk := range backends(t) {
			t.Run(bits+"/"+name, func(t *testing.T) {
				w := phiwork.NewRSAPrivate(key)
				rng := mrand.New(mrand.NewSource(11))
				ins := make([]phiwork.Input, 7)
				for i := range ins {
					c, err := bn.RandomRange(rng, bn.One(), key.N)
					if err != nil {
						t.Fatal(err)
					}
					ins[i] = phiwork.Input{A: c}
				}
				checkBatchVsScalar(t, w, ins, mk)
				// The batch path must also match the CRT scalar reference
				// (PrivateOp with the paper's defaults), not just the
				// non-CRT fallback.
				out, _, _, err := w.ExecuteBatch(mk(), ins)
				if err != nil {
					t.Fatal(err)
				}
				eng := baseline.NewMPSS()
				for l, in := range ins {
					want, err := rsakit.PrivateOp(eng, key, in.A, rsakit.DefaultPrivateOpts())
					if err != nil {
						t.Fatal(err)
					}
					if !out[l].Equal(want) {
						t.Fatalf("lane %d: batch diverges from scalar CRT PrivateOp", l)
					}
				}
			})
		}
	}
}

func TestPSSSignDifferential(t *testing.T) {
	for bits, key := range keyCases() {
		for name, mk := range backends(t) {
			t.Run(bits+"/"+name, func(t *testing.T) {
				w := phiwork.NewPSSSign(key)
				emBits := key.N.BitLen() - 1
				saltRng := mrand.New(mrand.NewSource(17))
				msgs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma"), []byte("delta")}
				ins := make([]phiwork.Input, len(msgs))
				for i, msg := range msgs {
					em, err := rsakit.EncodePSSSHA256(saltRng, msg, emBits)
					if err != nil {
						t.Fatal(err)
					}
					ins[i] = phiwork.Input{A: bn.FromBytes(em)}
				}
				checkBatchVsScalar(t, w, ins, mk)
				// End-to-end: the batch signature must verify as a PSS
				// signature over the original message.
				out, laneErrs, _, err := w.ExecuteBatch(mk(), ins)
				if err != nil {
					t.Fatal(err)
				}
				eng := baseline.NewMPSS()
				for l, msg := range msgs {
					if laneErrs[l] != nil {
						t.Fatalf("lane %d: %v", l, laneErrs[l])
					}
					sig := out[l].FillBytes(make([]byte, key.Size()))
					if err := rsakit.VerifyPSSSHA256(eng, &key.PublicKey, msg, sig); err != nil {
						t.Fatalf("lane %d: batch PSS signature fails verification: %v", l, err)
					}
				}
			})
		}
	}
}

func TestDHEFixedDifferential(t *testing.T) {
	for bits, group := range groupCases() {
		for name, mk := range backends(t) {
			t.Run(bits+"/"+name, func(t *testing.T) {
				w := phiwork.NewDHEFixed(group)
				rng := mrand.New(mrand.NewSource(23))
				ins := make([]phiwork.Input, 6)
				for i := range ins {
					x, err := bn.Random(rng, 256, true)
					if err != nil {
						t.Fatal(err)
					}
					ins[i] = phiwork.Input{A: x}
				}
				checkBatchVsScalar(t, w, ins, mk)
				// Reference: the exact expression dh.GenerateKey evaluates.
				out, _, _, err := w.ExecuteBatch(mk(), ins)
				if err != nil {
					t.Fatal(err)
				}
				eng := baseline.NewMPSS()
				for l, in := range ins {
					if want := eng.ModExp(group.G, in.A, group.P); !out[l].Equal(want) {
						t.Fatalf("lane %d: batch g^x diverges from scalar ModExp", l)
					}
				}
			})
		}
	}
}

func TestDHEVarDifferential(t *testing.T) {
	for bits, group := range groupCases() {
		for name, mk := range backends(t) {
			t.Run(bits+"/"+name, func(t *testing.T) {
				w := phiwork.NewDHEVar(group)
				rng := mrand.New(mrand.NewSource(29))
				eng := baseline.NewMPSS()
				ins := make([]phiwork.Input, 5)
				for i := range ins {
					us, err := dh.GenerateKey(eng, rng, group)
					if err != nil {
						t.Fatal(err)
					}
					them, err := dh.GenerateKey(eng, rng, group)
					if err != nil {
						t.Fatal(err)
					}
					ins[i] = phiwork.Input{A: us.Private, B: them.Public}
				}
				checkBatchVsScalar(t, w, ins, mk)
				// Reference: scalar dh.SharedSecret on the same pairs.
				out, laneErrs, _, err := w.ExecuteBatch(mk(), ins)
				if err != nil {
					t.Fatal(err)
				}
				for l, in := range ins {
					if laneErrs[l] != nil {
						t.Fatalf("lane %d: %v", l, laneErrs[l])
					}
					kp := &dh.KeyPair{Group: group, Private: in.A}
					want, err := dh.SharedSecret(eng, kp, in.B)
					if err != nil {
						t.Fatal(err)
					}
					if !out[l].Equal(want) {
						t.Fatalf("lane %d: batch shared secret diverges from dh.SharedSecret", l)
					}
				}
			})
		}
	}
}

func TestDHEVarRejectsDegenerateLanes(t *testing.T) {
	group := dh.MODP1024()
	w := phiwork.NewDHEVar(group)
	rng := mrand.New(mrand.NewSource(31))
	eng := baseline.NewMPSS()
	good, err := dh.GenerateKey(eng, rng, group)
	if err != nil {
		t.Fatal(err)
	}
	x, err := bn.Random(rng, 256, true)
	if err != nil {
		t.Fatal(err)
	}
	ins := []phiwork.Input{
		{A: x, B: bn.One()},               // degenerate peer: rejected pre-pass
		{A: x, B: good.Public},            // clean lane
		{A: x, B: group.P.SubUint64(1)},   // p-1: small-subgroup, rejected
		{A: x, B: group.P.AddUint64(123)}, // out of range
	}
	// Validate must agree with the batch's per-lane outcome.
	for l, in := range ins {
		wantErr := l != 1
		if err := w.Validate(in); (err != nil) != wantErr {
			t.Fatalf("Validate lane %d: err=%v, want error=%v", l, err, wantErr)
		}
	}
	out, laneErrs, _, err := w.ExecuteBatch(vpu.NewBackend(vpu.BackendSim), ins)
	if err != nil {
		t.Fatal(err)
	}
	for l := range ins {
		if l == 1 {
			if laneErrs[l] != nil {
				t.Fatalf("clean lane flagged: %v", laneErrs[l])
			}
			continue
		}
		if laneErrs[l] == nil {
			t.Fatalf("degenerate lane %d not flagged", l)
		}
		if !out[l].IsZero() {
			t.Fatalf("degenerate lane %d released a value", l)
		}
	}
}

func TestPublicDifferential(t *testing.T) {
	for bits, key := range keyCases() {
		for name, mk := range backends(t) {
			t.Run(bits+"/"+name, func(t *testing.T) {
				w := phiwork.NewRSAPublic(&key.PublicKey)
				if w.Class() != phiwork.ClassLight {
					t.Fatal("public workload must be ClassLight")
				}
				rng := mrand.New(mrand.NewSource(37))
				ins := make([]phiwork.Input, 9)
				for i := range ins {
					m, err := bn.RandomRange(rng, bn.One(), key.N)
					if err != nil {
						t.Fatal(err)
					}
					ins[i] = phiwork.Input{A: m}
				}
				checkBatchVsScalar(t, w, ins, mk)
			})
		}
	}
}

// TestWorkloadIdentity pins the aggregation/routing contract: same kind +
// same key → equal route bytes; different kinds on the same key (or the
// same kind on different keys) must not collide.
func TestWorkloadIdentity(t *testing.T) {
	priv := phiwork.NewRSAPrivate(diffKey1024)
	pss := phiwork.NewPSSSign(diffKey1024)
	pub := phiwork.NewRSAPublic(&diffKey1024.PublicKey)
	fixed := phiwork.NewDHEFixed(dh.MODP2048())
	vr := phiwork.NewDHEVar(dh.MODP2048())
	seen := map[string]phiwork.Kind{}
	for _, w := range []phiwork.Workload{priv, pss, pub, fixed, vr} {
		rb := string(w.RouteBytes())
		if prev, dup := seen[rb]; dup {
			t.Fatalf("route bytes collide between %s and %s", prev, w.Kind())
		}
		seen[rb] = w.Kind()
	}
	if string(priv.RouteBytes()) != string(phiwork.NewRSAPrivate(diffKey1024).RouteBytes()) {
		t.Fatal("route bytes are not stable across instances of the same identity")
	}
	kinds := phiwork.Kinds()
	if len(kinds) != 5 {
		t.Fatalf("canonical kind list has %d entries, want 5", len(kinds))
	}
}

// TestValidateRejectsOutOfRange pins the pre-batch validation for the
// RSA-shaped workloads.
func TestValidateRejectsOutOfRange(t *testing.T) {
	key := diffKey1024
	over := key.N.AddUint64(1)
	for _, w := range []phiwork.Workload{
		phiwork.NewRSAPrivate(key),
		phiwork.NewPSSSign(key),
		phiwork.NewRSAPublic(&key.PublicKey),
	} {
		if err := w.Validate(phiwork.Input{A: over}); err == nil {
			t.Fatalf("%s: out-of-range input accepted", w.Kind())
		}
		if err := w.Validate(phiwork.Input{A: bn.One()}); err != nil {
			t.Fatalf("%s: in-range input rejected: %v", w.Kind(), err)
		}
	}
	if err := phiwork.NewDHEFixed(dh.MODP1024()).Validate(phiwork.Input{}); err == nil {
		t.Fatal("dhe-fixed: zero exponent accepted")
	}
}

// TestRSAPrivateFaultWithholds pins that the Bellcore discipline survived
// the seam: a lane error from the verified batch wraps ErrFaultDetected
// (none should fire without injection — this asserts the plumbing type).
func TestRSAPrivateFaultWithholds(t *testing.T) {
	w := phiwork.NewRSAPrivate(diffKey1024)
	ins := []phiwork.Input{{A: bn.FromUint64(42)}}
	_, laneErrs, _, err := w.ExecuteBatch(vpu.NewBackend(vpu.BackendSim), ins)
	if err != nil {
		t.Fatal(err)
	}
	for _, le := range laneErrs {
		if le != nil && !errors.Is(le, rsakit.ErrFaultDetected) {
			t.Fatalf("lane error %v does not wrap ErrFaultDetected", le)
		}
	}
}

// TestBackendsAgreeAtPartialFill: for every kind at 1024 bits, a batch of
// 1, 3 or 16 lanes must give the same outputs, the same per-lane errors
// and the same Counts and Phases on the sim and the direct backend — the
// direct backend computes only the live lanes, yet charges a full pass
// exactly as the sim's padded 16-lane stream does. Lane 1 of dhe-var
// carries a degenerate peer so the per-lane error path is compared too.
func TestBackendsAgreeAtPartialFill(t *testing.T) {
	key, group := diffKey1024, dh.MODP1024()
	rng := mrand.New(mrand.NewSource(41))
	eng := baseline.NewMPSS()
	below := func(n bn.Nat) bn.Nat {
		v, err := bn.RandomRange(rng, bn.One(), n)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	kinds := []struct {
		w     phiwork.Workload
		input func(l int) phiwork.Input
	}{
		{phiwork.NewRSAPrivate(key), func(int) phiwork.Input { return phiwork.Input{A: below(key.N)} }},
		{phiwork.NewPSSSign(key), func(l int) phiwork.Input {
			em, err := rsakit.EncodePSSSHA256(rng, []byte{byte(l)}, key.N.BitLen()-1)
			if err != nil {
				t.Fatal(err)
			}
			return phiwork.Input{A: bn.FromBytes(em)}
		}},
		{phiwork.NewRSAPublic(&key.PublicKey), func(int) phiwork.Input { return phiwork.Input{A: below(key.N)} }},
		{phiwork.NewDHEFixed(group), func(int) phiwork.Input {
			x, err := bn.Random(rng, 256, true)
			if err != nil {
				t.Fatal(err)
			}
			return phiwork.Input{A: x}
		}},
		{phiwork.NewDHEVar(group), func(l int) phiwork.Input {
			us, err := dh.GenerateKey(eng, rng, group)
			if err != nil {
				t.Fatal(err)
			}
			if l == 1 {
				return phiwork.Input{A: us.Private, B: bn.One()}
			}
			them, err := dh.GenerateKey(eng, rng, group)
			if err != nil {
				t.Fatal(err)
			}
			return phiwork.Input{A: us.Private, B: them.Public}
		}},
	}
	for _, k := range kinds {
		ins := make([]phiwork.Input, vbatch.BatchSize)
		for l := range ins {
			ins[l] = k.input(l)
		}
		for _, fill := range []int{1, 3, vbatch.BatchSize} {
			simOut, simErrs, simBd, err := k.w.ExecuteBatch(vpu.NewBackend(vpu.BackendSim), ins[:fill])
			if err != nil {
				t.Fatalf("%s fill %d sim: %v", k.w.Kind(), fill, err)
			}
			dirOut, dirErrs, dirBd, err := k.w.ExecuteBatch(vpu.NewBackend(vpu.BackendDirect), ins[:fill])
			if err != nil {
				t.Fatalf("%s fill %d direct: %v", k.w.Kind(), fill, err)
			}
			if len(simOut) != fill || len(dirOut) != fill {
				t.Fatalf("%s fill %d: %d sim and %d direct outputs", k.w.Kind(), fill, len(simOut), len(dirOut))
			}
			for l := range simOut {
				if fmt.Sprint(simErrs[l]) != fmt.Sprint(dirErrs[l]) {
					t.Fatalf("%s fill %d lane %d: sim err %v, direct err %v", k.w.Kind(), fill, l, simErrs[l], dirErrs[l])
				}
				if !simOut[l].Equal(dirOut[l]) {
					t.Fatalf("%s fill %d lane %d: outputs diverge", k.w.Kind(), fill, l)
				}
			}
			if simBd.Counts != dirBd.Counts || simBd.Phases != dirBd.Phases {
				t.Fatalf("%s fill %d: charges diverge:\n sim    %v\n direct %v", k.w.Kind(), fill, simBd.Counts, dirBd.Counts)
			}
		}
	}
}
