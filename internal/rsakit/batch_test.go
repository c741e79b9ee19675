package rsakit

import (
	mrand "math/rand"
	"testing"

	"phiopenssl/internal/baseline"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/core"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/vpu"
)

func TestPrivateOpBatchMatchesSingle(t *testing.T) {
	key := testKey512
	rng := mrand.New(mrand.NewSource(80))
	var cs [BatchSize]bn.Nat
	for l := range cs {
		c, err := bn.RandomRange(rng, bn.One(), key.N)
		if err != nil {
			t.Fatal(err)
		}
		cs[l] = c
	}
	u := vpu.New()
	got, err := PrivateOpBatch(u, key, &cs)
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.NewOpenSSL()
	for l := 0; l < BatchSize; l++ {
		want, err := PrivateOp(ref, key, cs[l], DefaultPrivateOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !got[l].Equal(want) {
			t.Fatalf("lane %d: batch %s != single %s", l, got[l], want)
		}
	}
	if u.Counts().Total() == 0 {
		t.Fatal("batch issued no vector instructions")
	}
}

func TestPrivateOpBatchRoundTrip(t *testing.T) {
	key := testKey1024
	rng := mrand.New(mrand.NewSource(81))
	eng := baseline.NewMPSS()
	var msgs, cs [BatchSize]bn.Nat
	for l := range msgs {
		m, err := bn.RandomRange(rng, bn.One(), key.N)
		if err != nil {
			t.Fatal(err)
		}
		msgs[l] = m
		c, err := PublicOp(eng, &key.PublicKey, m)
		if err != nil {
			t.Fatal(err)
		}
		cs[l] = c
	}
	got, err := PrivateOpBatch(vpu.New(), key, &cs)
	if err != nil {
		t.Fatal(err)
	}
	for l := range msgs {
		if !got[l].Equal(msgs[l]) {
			t.Fatalf("lane %d round trip failed", l)
		}
	}
}

func TestPrivateOpBatchRangeCheck(t *testing.T) {
	key := testKey512
	var cs [BatchSize]bn.Nat
	cs[7] = key.N.AddUint64(1)
	if _, err := PrivateOpBatch(vpu.New(), key, &cs); err == nil {
		t.Fatal("out-of-range lane accepted")
	}
}

// TestBatchCheaperPerOpThanHorizontal is the RSA-level A4 assertion: the
// per-ciphertext vector cycle cost of the batch path must undercut the
// single-op (horizontal) PhiOpenSSL engine.
func TestBatchCheaperPerOpThanHorizontal(t *testing.T) {
	key := testKey1024
	rng := mrand.New(mrand.NewSource(82))
	var cs [BatchSize]bn.Nat
	for l := range cs {
		c, err := bn.RandomRange(rng, bn.One(), key.N)
		if err != nil {
			t.Fatal(err)
		}
		cs[l] = c
	}
	u := vpu.New()
	if _, err := PrivateOpBatch(u, key, &cs); err != nil {
		t.Fatal(err)
	}
	batchPerOp := knc.KNCVectorCosts.VectorCycles(u.Counts()) / BatchSize

	phi := enginesPhi()
	if _, err := PrivateOp(phi, key, cs[0], DefaultPrivateOpts()); err != nil {
		t.Fatal(err)
	}
	single := phi.Cycles()
	if batchPerOp >= single {
		t.Fatalf("batch per-op %.0f cycles not below single-op %.0f", batchPerOp, single)
	}
}

// enginesPhi returns a fresh PhiOpenSSL engine (helper keeping the import
// local to batch tests).
func enginesPhi() engine.Engine { return core.New() }

// TestPrivateOpBatchNMatchesSingle drives every partial fill 1..15: each
// live lane must match the per-op PrivateOp answer bit-exactly.
func TestPrivateOpBatchNMatchesSingle(t *testing.T) {
	key := testKey512
	rng := mrand.New(mrand.NewSource(83))
	ref := baseline.NewOpenSSL()
	for live := 1; live < BatchSize; live++ {
		cs := make([]bn.Nat, live)
		for l := range cs {
			c, err := bn.RandomRange(rng, bn.One(), key.N)
			if err != nil {
				t.Fatal(err)
			}
			cs[l] = c
		}
		got, err := PrivateOpBatchN(vpu.New(), key, cs)
		if err != nil {
			t.Fatalf("live=%d: %v", live, err)
		}
		if len(got) != live {
			t.Fatalf("live=%d: got %d results", live, len(got))
		}
		for l := range cs {
			want, err := PrivateOp(ref, key, cs[l], DefaultPrivateOpts())
			if err != nil {
				t.Fatal(err)
			}
			if !got[l].Equal(want) {
				t.Fatalf("live=%d lane %d: batch %s != single %s", live, l, got[l], want)
			}
		}
	}
}

func TestPrivateOpBatchNValidation(t *testing.T) {
	key := testKey512
	if _, err := PrivateOpBatchN(vpu.New(), key, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := PrivateOpBatchN(vpu.New(), key, make([]bn.Nat, BatchSize+1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, err := PrivateOpBatchN(vpu.New(), key, []bn.Nat{key.N}); err == nil {
		t.Fatal("out-of-range lane accepted")
	}
}

// TestPartialBatchChargesNoMoreThanFull: a partial batch costs one full
// 16-lane pass on the card whatever its fill, so on both backends the
// verified private pass and the public pass at 1, 7 and 15 live lanes must
// charge exactly the counts, per-phase attribution and cycles of the full
// batch — no less (the direct backend computes only the live lanes, but
// must still charge every dead lane) and no more.
func TestPartialBatchChargesNoMoreThanFull(t *testing.T) {
	key := testKey512
	rng := mrand.New(mrand.NewSource(84))
	cs := make([]bn.Nat, BatchSize)
	for l := range cs {
		c, err := bn.RandomRange(rng, bn.One(), key.N)
		if err != nil {
			t.Fatal(err)
		}
		cs[l] = c
	}
	passes := []struct {
		name string
		run  func(be vpu.Backend, cs []bn.Nat) error
	}{
		{"verified-private", func(be vpu.Backend, cs []bn.Nat) error {
			_, _, err := PrivateOpBatchVerifiedN(be, key, cs)
			return err
		}},
		{"public", func(be vpu.Backend, cs []bn.Nat) error {
			_, err := PublicOpBatchN(be, &key.PublicKey, cs)
			return err
		}},
	}
	for _, kind := range []vpu.BackendKind{vpu.BackendSim, vpu.BackendDirect} {
		for _, pass := range passes {
			charge := func(live int) (vpu.Counts, [vpu.MaxPhases]vpu.Counts) {
				be := vpu.NewBackend(kind)
				if err := pass.run(be, cs[:live]); err != nil {
					t.Fatal(err)
				}
				return be.Counts(), be.PhaseCounts()
			}
			full, fullPhases := charge(BatchSize)
			fullCycles := knc.KNCVectorCosts.VectorCycles(full)
			for _, live := range []int{1, 7, 15} {
				counts, phases := charge(live)
				if counts != full || phases != fullPhases {
					t.Fatalf("%s %s live=%d: charged %v (phases %v), full batch %v (phases %v)",
						kind, pass.name, live, counts, phases, full, fullPhases)
				}
				if cycles := knc.KNCVectorCosts.VectorCycles(counts); cycles != fullCycles {
					t.Fatalf("%s %s live=%d: %.0f cycles != full batch %.0f",
						kind, pass.name, live, cycles, fullCycles)
				}
			}
		}
	}
}

// TestDecryptPKCS1v15BatchN exercises the PKCS#1 v1.5 decrypt path over
// partial batches, including a poisoned lane that must fail without
// affecting its neighbors.
func TestDecryptPKCS1v15BatchN(t *testing.T) {
	key := testKey512
	rng := mrand.New(mrand.NewSource(85))
	pub := &key.PublicKey
	eng := baseline.NewOpenSSL()
	for _, live := range []int{1, 3, BatchSize} {
		msgs := make([][]byte, live)
		cts := make([][]byte, live)
		for l := 0; l < live; l++ {
			msg := make([]byte, 16)
			rng.Read(msg)
			msgs[l] = msg
			ct, err := EncryptPKCS1v15(eng, rng, pub, msg)
			if err != nil {
				t.Fatal(err)
			}
			cts[l] = ct
		}
		bad := -1
		if live >= 3 {
			bad = 1
			cts[bad] = make([]byte, key.Size()) // decrypts to garbage padding
		}
		got, errs, err := DecryptPKCS1v15Batch(vpu.New(), key, cts)
		if err != nil {
			t.Fatalf("live=%d: %v", live, err)
		}
		for l := 0; l < live; l++ {
			if l == bad {
				if errs[l] == nil {
					t.Fatalf("live=%d: poisoned lane %d decrypted", live, l)
				}
				continue
			}
			if errs[l] != nil {
				t.Fatalf("live=%d lane %d: %v", live, l, errs[l])
			}
			want, err := DecryptPKCS1v15(eng, key, cts[l], DefaultPrivateOpts())
			if err != nil || !bytesEqual(got[l], want) || !bytesEqual(want, msgs[l]) {
				t.Fatalf("live=%d lane %d: batch %x != single %x (%v)", live, l, got[l], want, err)
			}
		}
	}
}

// TestDecryptOAEPBatchN exercises the OAEP decrypt path over partial
// batches, including a wrong-length lane.
func TestDecryptOAEPBatchN(t *testing.T) {
	key := testKey1024 // OAEP-SHA256 needs k >= 2*32+2
	rng := mrand.New(mrand.NewSource(86))
	pub := &key.PublicKey
	eng := baseline.NewOpenSSL()
	label := []byte("phiserve")
	for _, live := range []int{1, 5} {
		msgs := make([][]byte, live)
		cts := make([][]byte, live)
		for l := 0; l < live; l++ {
			msg := make([]byte, 24)
			rng.Read(msg)
			msgs[l] = msg
			ct, err := EncryptOAEP(eng, rng, pub, msg, label)
			if err != nil {
				t.Fatal(err)
			}
			cts[l] = ct
		}
		bad := -1
		if live > 1 {
			bad = live - 1
			cts[bad] = cts[bad][:7] // wrong length
		}
		got, errs, err := DecryptOAEPBatch(vpu.New(), key, cts, label)
		if err != nil {
			t.Fatalf("live=%d: %v", live, err)
		}
		for l := 0; l < live; l++ {
			if l == bad {
				if errs[l] == nil {
					t.Fatalf("live=%d: truncated lane %d decrypted", live, l)
				}
				continue
			}
			if errs[l] != nil {
				t.Fatalf("live=%d lane %d: %v", live, l, errs[l])
			}
			want, err := DecryptOAEP(eng, key, cts[l], label, DefaultPrivateOpts())
			if err != nil || !bytesEqual(got[l], want) || !bytesEqual(want, msgs[l]) {
				t.Fatalf("live=%d lane %d: batch %x != single %x (%v)", live, l, got[l], want, err)
			}
		}
	}
	if _, _, err := DecryptOAEPBatch(vpu.New(), key, nil, label); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
