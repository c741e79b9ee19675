package phifleet

import (
	"testing"
	"time"

	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phiwork"
)

// TestRingProperties: the ring's order is deterministic, covers every
// card exactly once, and distributes keys reasonably.
func TestRingProperties(t *testing.T) {
	r := newRing(4)
	keys, _, _ := keySet(t, 12)
	counts := make([]int, 4)
	for _, k := range keys {
		o1 := r.order(phiwork.RSAPrivateFor(k))
		o2 := r.order(phiwork.RSAPrivateFor(k))
		if len(o1) != 4 {
			t.Fatalf("order length %d, want 4", len(o1))
		}
		seen := make(map[int]bool)
		for i, c := range o1 {
			if o2[i] != c {
				t.Fatal("order not deterministic")
			}
			if seen[c] {
				t.Fatal("order repeats a card")
			}
			seen[c] = true
		}
		counts[o1[0]]++
	}
	spread := 0
	for _, c := range counts {
		if c > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("12 keys all homed on one card: %v", counts)
	}
}

// TestHotTrackerThreshold: a key is hot only while it beats one full
// batch per window.
func TestHotTrackerThreshold(t *testing.T) {
	h := newHotTracker(time.Second, phiserve.BatchSize)
	now := time.Unix(0, 0)
	h.now = func() time.Time { return now }
	keys, _, _ := keySet(t, 2)

	// Slow key: one arrival per window, never hot.
	for i := 0; i < 5; i++ {
		if h.observe(phiwork.RSAPrivateFor(keys[0])) {
			t.Fatal("slow key marked hot")
		}
		now = now.Add(time.Second)
	}
	// Burst key: a full batch inside one window flips it hot immediately.
	hot := false
	for i := 0; i < phiserve.BatchSize; i++ {
		hot = h.observe(phiwork.RSAPrivateFor(keys[1]))
	}
	if !hot {
		t.Fatal("bursting key never marked hot")
	}
	// After a quiet window it cools down.
	now = now.Add(2 * time.Second)
	if h.observe(phiwork.RSAPrivateFor(keys[1])) {
		t.Fatal("key stayed hot through a quiet window")
	}
}
