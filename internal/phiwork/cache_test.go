package phiwork

import (
	mrand "math/rand"
	"sync"
	"testing"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/dh"
	"phiopenssl/internal/rsakit"
)

var (
	cacheKeyOnce sync.Once
	cacheKey     *rsakit.PrivateKey
)

func testKey1024(t *testing.T) *rsakit.PrivateKey {
	t.Helper()
	cacheKeyOnce.Do(func() {
		rng := mrand.New(mrand.NewSource(42))
		k, err := rsakit.GenerateKey(rng, 1024)
		if err != nil {
			t.Fatal(err)
		}
		cacheKey = k
	})
	return cacheKey
}

func oneNat() bn.Nat { return bn.One() }

// TestInstanceCacheIdentity: the whole point of the caches — same
// identity, same Workload pointer, so submissions aggregate.
func TestInstanceCacheIdentity(t *testing.T) {
	key := testKey1024(t)
	if RSAPrivateFor(key) != RSAPrivateFor(key) {
		t.Fatal("RSAPrivateFor not canonical for the same key")
	}
	if PSSSignFor(key) != PSSSignFor(key) {
		t.Fatal("PSSSignFor not canonical for the same key")
	}
	if Workload(RSAPrivateFor(key)) == Workload(PSSSignFor(key)) {
		t.Fatal("rsa-priv and pss-sign must be distinct instances per key")
	}
	pub := &key.PublicKey
	if RSAPublicFor(pub) != RSAPublicFor(pub) {
		t.Fatal("RSAPublicFor not canonical")
	}
	g := dh.MODP2048()
	if DHEFixedFor(g) != DHEFixedFor(g) {
		t.Fatal("DHEFixedFor not canonical for the same group")
	}
	if DHEVarFor(g) != DHEVarFor(g) {
		t.Fatal("DHEVarFor not canonical for the same group")
	}
}

// TestInstanceCacheBounded is the satellite regression test: a long-lived
// process wrapping millions of distinct keys must not grow the caches
// without bound (the PR 5 keyTags discipline).
func TestInstanceCacheBounded(t *testing.T) {
	base := testKey1024(t)
	for i := 0; i < CacheMax+64; i++ {
		k := *base // distinct pointer per iteration; the cache is identity-keyed
		if RSAPrivateFor(&k) == nil {
			t.Fatal("nil workload")
		}
		p := base.PublicKey
		if RSAPublicFor(&p) == nil {
			t.Fatal("nil workload")
		}
	}
	if n := rsaPrivCache.size(); n > CacheMax {
		t.Fatalf("rsa-priv cache holds %d entries, cap is %d", n, CacheMax)
	}
	if n := pubCache.size(); n > CacheMax {
		t.Fatalf("public cache holds %d entries, cap is %d", n, CacheMax)
	}
	// Eviction must not break canonicalization going forward.
	k := *base
	if RSAPrivateFor(&k) != RSAPrivateFor(&k) {
		t.Fatal("post-eviction lookups not canonical")
	}
}

// TestTransient: only Bellcore fault detections are retryable; validation
// failures (degenerate DHE secrets) are permanent.
func TestTransient(t *testing.T) {
	if !Transient(rsakit.ErrFaultDetected) {
		t.Fatal("ErrFaultDetected must be transient")
	}
	g := dh.MODP2048()
	w := DHEVarFor(g)
	// A degenerate peer (1) fails validation — permanent.
	if err := w.Validate(Input{A: oneNat(), B: oneNat()}); err == nil {
		t.Fatal("degenerate peer accepted")
	} else if Transient(err) {
		t.Fatalf("validation error %v classified transient", err)
	}
}

// TestTagsBuiltOnce: a canonical workload's Tag is built by its
// constructor, so the per-journey Tag call allocates nothing, and a struct
// literal still reports the same tag.
func TestTagsBuiltOnce(t *testing.T) {
	key := testKey1024(t)
	g := dh.MODP1024()
	for _, c := range []struct {
		w       Workload
		literal Workload
		want    string
	}{
		{RSAPrivateFor(key), &RSAPrivate{Key: key}, "rsa-1024"},
		{PSSSignFor(key), &PSSSign{Key: key}, "pss-1024"},
		{RSAPublicFor(&key.PublicKey), &RSAPublic{Key: &key.PublicKey}, "pub-1024"},
		{DHEFixedFor(g), &DHEFixed{Group: g}, "dhe-fixed-" + g.Name},
		{DHEVarFor(g), &DHEVar{Group: g}, "dhe-var-" + g.Name},
	} {
		if got := c.w.Tag(); got != c.want {
			t.Errorf("%s: Tag %q, want %q", c.w.Kind(), got, c.want)
		}
		if got := c.literal.Tag(); got != c.want {
			t.Errorf("%s literal: Tag %q, want %q", c.w.Kind(), got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = c.w.Tag() }); n != 0 {
			t.Errorf("%s: %v allocations per Tag call, want 0", c.w.Kind(), n)
		}
	}
}
