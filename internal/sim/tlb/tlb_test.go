package tlb

import (
	"reflect"
	"testing"

	"repro/internal/xrand"
)

func TestHitAfterFill(t *testing.T) {
	tl := New(64, 4096)
	if tl.Access(0x1000) {
		t.Error("cold translation hit")
	}
	if !tl.Access(0x1FFF) {
		t.Error("same-page access missed")
	}
	if tl.Access(0x2000) {
		t.Error("next page hit cold")
	}
	hits, misses := tl.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestSmallFootprintAlwaysHits(t *testing.T) {
	tl := New(64, 4096)
	rng := xrand.New(2)
	// 16 pages on a 64-entry TLB: after warm-up, no misses.
	for i := 0; i < 1000; i++ {
		tl.Access(uint64(rng.Intn(16)) * 4096)
	}
	tl.ResetStats()
	for i := 0; i < 10000; i++ {
		tl.Access(uint64(rng.Intn(16)) * 4096)
	}
	if _, misses := tl.Stats(); misses != 0 {
		t.Errorf("%d misses on a resident page set", misses)
	}
}

func TestLargeFootprintMisses(t *testing.T) {
	tl := New(64, 4096)
	rng := xrand.New(3)
	for i := 0; i < 20000; i++ {
		tl.Access(rng.Uint64n(4096) * 4096) // 4096 pages >> 64 entries
	}
	hits, misses := tl.Stats()
	missRate := float64(misses) / float64(hits+misses)
	if missRate < 0.9 {
		t.Errorf("miss rate %.3f on a 64× oversubscribed TLB, want ~1", missRate)
	}
}

func TestFlush(t *testing.T) {
	tl := New(16, 4096)
	tl.Access(0)
	tl.Flush()
	if tl.Access(0) {
		t.Error("translation survived flush")
	}
}

func TestEntriesRounding(t *testing.T) {
	if got := New(64, 4096).Entries(); got != 64 {
		t.Errorf("entries = %d, want 64", got)
	}
	// Non-multiple entry counts round down to full sets.
	if got := New(66, 4096).Entries(); got != 64 {
		t.Errorf("entries = %d, want 64", got)
	}
	// Tiny TLBs keep at least one set.
	if got := New(2, 4096).Entries(); got != 4 {
		t.Errorf("entries = %d, want 4", got)
	}
}

func TestBadParamsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4096) },
		func() { New(16, 1000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad TLB params accepted")
				}
			}()
			f()
		}()
	}
}

// TestAccessNMatchesRepeatedAccess: AccessN(addr, n) leaves the TLB exactly
// as n back-to-back Access(addr) calls do, whether the probe hits, fills an
// empty entry or evicts.
func TestAccessNMatchesRepeatedAccess(t *testing.T) {
	closed, looped := New(64, 4096), New(64, 4096)
	rng := xrand.New(5)
	for i := 0; i < 20_000; i++ {
		addr := rng.Uint64n(1 << 24)
		n := 1 + rng.Uint64n(70)
		closed.AccessN(addr, n)
		for k := uint64(0); k < n; k++ {
			looped.Access(addr)
		}
	}
	if !reflect.DeepEqual(closed, looped) {
		t.Error("AccessN diverged from repeated Access")
	}
}
