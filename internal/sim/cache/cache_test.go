package cache

import (
	"math/bits"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim/isa"
	"repro/internal/xrand"
)

func lruParams() isa.CacheParams {
	return isa.CacheParams{SizeBytes: 4096, Ways: 4, LineBytes: 64, Policy: isa.PolicyLRU}
}

func TestHitAfterFill(t *testing.T) {
	c := New("t", lruParams())
	if c.Access(0x1000, true) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000, true) {
		t.Error("second access missed")
	}
	if !c.Access(0x103F, true) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1040, true) {
		t.Error("next line hit without fill")
	}
	hits, misses, _ := c.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("stats = %d/%d, want 2/2", hits, misses)
	}
}

func TestNoAllocateLeavesCacheCold(t *testing.T) {
	c := New("t", lruParams())
	c.Access(0x2000, false)
	if c.Contains(0x2000) {
		t.Error("non-allocating miss installed a line")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p := lruParams() // 16 sets × 4 ways
	c := New("t", p)
	setStride := uint64(p.LineBytes * p.Sets()) // same-set stride
	// Fill one set's 4 ways.
	for w := uint64(0); w < 4; w++ {
		c.Access(w*setStride, true)
	}
	// Touch way 0 so way 1 becomes LRU.
	c.Access(0, true)
	// A fifth line must evict way 1, keeping way 0.
	c.Access(4*setStride, true)
	if !c.Contains(0) {
		t.Error("recently used line evicted")
	}
	if c.Contains(1 * setStride) {
		t.Error("LRU line survived")
	}
}

func TestFlush(t *testing.T) {
	c := New("t", lruParams())
	c.Access(0x40, true)
	c.Flush()
	if c.Contains(0x40) {
		t.Error("line survived flush")
	}
	if h, m, _ := c.Stats(); h != 0 || m != 0 {
		t.Error("stats survived flush")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := New("t", lruParams())
	c.Access(0x40, true)
	c.ResetStats()
	if !c.Contains(0x40) {
		t.Error("ResetStats dropped contents")
	}
	if h, m, _ := c.Stats(); h != 0 || m != 0 {
		t.Error("counters not reset")
	}
}

func TestOccupancy(t *testing.T) {
	p := lruParams()
	c := New("t", p)
	if c.Occupancy() != 0 {
		t.Error("fresh cache not empty")
	}
	// Fill the whole cache with distinct lines.
	lines := p.SizeBytes / p.LineBytes
	for i := 0; i < lines; i++ {
		c.Access(uint64(i*p.LineBytes), true)
	}
	if c.Occupancy() != 1 {
		t.Errorf("occupancy = %g after filling", c.Occupancy())
	}
}

// LineCount is maintained incrementally on fill/flush rather than scanned
// (the checker polls it for every cache at every interval); pin it to a
// ground-truth scan of the valid bits under a random access pattern.
func TestLineCountMatchesScan(t *testing.T) {
	for _, pol := range []isa.ReplacementPolicy{isa.PolicyLRU, isa.PolicyRandom} {
		p := lruParams()
		p.Policy = pol
		c := New("t", p)
		rng := xrand.New(7)
		scan := func() int {
			n := 0
			for _, tag := range c.tags {
				if tag != invalidTag {
					n++
				}
			}
			return n
		}
		for i := 0; i < 2000; i++ {
			c.Access(rng.Uint64()%uint64(4*p.SizeBytes), rng.Bool(0.8))
			if i%97 == 0 {
				if got, want := c.LineCount(), scan(); got != want {
					t.Fatalf("policy %v: LineCount = %d, scan = %d after %d accesses", pol, got, want, i+1)
				}
			}
		}
		if got, want := c.LineCount(), scan(); got != want {
			t.Fatalf("policy %v: LineCount = %d, scan = %d", pol, got, want)
		}
		c.Flush()
		if c.LineCount() != 0 {
			t.Errorf("policy %v: LineCount = %d after Flush", pol, c.LineCount())
		}
	}
}

// Property: a line just accessed with allocate=true is always Contains,
// under either policy.
func TestAccessThenContains(t *testing.T) {
	for _, pol := range []isa.ReplacementPolicy{isa.PolicyLRU, isa.PolicyRandom} {
		p := lruParams()
		p.Policy = pol
		c := New("t", p)
		if err := quick.Check(func(addr uint64) bool {
			c.Access(addr, true)
			return c.Contains(addr)
		}, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("policy %v: %v", pol, err)
		}
	}
}

// Property: working sets within capacity converge to 100% hit rate.
func TestResidentWorkingSetHits(t *testing.T) {
	for _, pol := range []isa.ReplacementPolicy{isa.PolicyLRU, isa.PolicyRandom} {
		p := lruParams()
		p.Policy = pol
		c := New("t", p)
		lines := p.SizeBytes / p.LineBytes
		rng := xrand.New(5)
		// Two full passes to install, then measure.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < lines; i++ {
				c.Access(uint64(i*p.LineBytes), true)
			}
		}
		c.ResetStats()
		for i := 0; i < 10000; i++ {
			c.Access(uint64(rng.Intn(lines)*p.LineBytes), true)
		}
		hits, misses, _ := c.Stats()
		if misses != 0 {
			t.Errorf("policy %v: %d misses on a resident working set (hits %d)", pol, misses, hits)
		}
	}
}

// Random replacement shares capacity smoothly between two competing
// streams in proportion to their insertion rates.
func TestRandomPolicySharesByRate(t *testing.T) {
	p := isa.CacheParams{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, Policy: isa.PolicyRandom}
	c := New("t", p)
	rng := xrand.New(9)
	// Stream A inserts 3× as often as stream B; both overflow the cache.
	baseA, baseB := uint64(1)<<30, uint64(2)<<30
	regionLines := uint64(4096) // 256 KiB each, 4× the capacity combined
	for i := 0; i < 400000; i++ {
		if rng.Intn(4) != 3 {
			c.Access(baseA+rng.Uint64n(regionLines)*64, true)
		} else {
			c.Access(baseB+rng.Uint64n(regionLines)*64, true)
		}
	}
	a, b := 0, 0
	for i := uint64(0); i < regionLines; i++ {
		if c.Contains(baseA + i*64) {
			a++
		}
		if c.Contains(baseB + i*64) {
			b++
		}
	}
	ratio := float64(a) / float64(b)
	if ratio < 2 || ratio > 4.5 {
		t.Errorf("occupancy ratio %d/%d = %.2f, want ≈3 (insertion-rate proportional)", a, b, ratio)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two sets accepted")
		}
	}()
	New("bad", isa.CacheParams{SizeBytes: 3000, Ways: 3, LineBytes: 64})
}

// AccessMasked with every way allowed must be bit-identical to Access —
// same hits, same victims, same RNG draws — so unrestricted contexts on a
// partitioned cache behave exactly as on an unpartitioned one.
func TestAccessMaskedFullMaskMatchesAccess(t *testing.T) {
	for _, pol := range []isa.ReplacementPolicy{isa.PolicyLRU, isa.PolicyRandom} {
		p := isa.CacheParams{SizeBytes: 16 << 10, Ways: 8, LineBytes: 64, Policy: pol}
		a, b := New("twin", p), New("twin", p)
		full := uint64(1)<<8 - 1
		rng := xrand.New(7)
		for i := 0; i < 200000; i++ {
			addr := rng.Uint64n(1 << 16)
			ha := a.Access(addr, true)
			hb := b.AccessMasked(addr, true, full)
			if ha != hb {
				t.Fatalf("policy %d: access %d diverged: %v vs %v", pol, i, ha, hb)
			}
		}
		ah, am, ae := a.Stats()
		bh, bm, be := b.Stats()
		if ah != bh || am != bm || ae != be {
			t.Fatalf("policy %d: stats diverged: %d/%d/%d vs %d/%d/%d", pol, ah, am, ae, bh, bm, be)
		}
		for i := uint64(0); i < 1<<16; i += 64 {
			if a.Contains(i) != b.Contains(i) {
				t.Fatalf("policy %d: contents diverged at %#x", pol, i)
			}
		}
	}
}

// A masked context allocates only into its owned ways: after arbitrary
// traffic, every resident line it inserted sits in an owned way.
func TestAccessMaskedConfinesAllocation(t *testing.T) {
	for _, pol := range []isa.ReplacementPolicy{isa.PolicyLRU, isa.PolicyRandom} {
		p := isa.CacheParams{SizeBytes: 8 << 10, Ways: 8, LineBytes: 64, Policy: pol}
		c := New("cat", p)
		ownedA, ownedB := uint64(0x0f), uint64(0xf0)
		baseA, baseB := uint64(1)<<30, uint64(2)<<30
		rng := xrand.New(3)
		for i := 0; i < 100000; i++ {
			c.AccessMasked(baseA+rng.Uint64n(1<<14), true, ownedA)
			c.AccessMasked(baseB+rng.Uint64n(1<<14), true, ownedB)
		}
		// Inspect placement: walk the tag array via Contains + way scan.
		for set := 0; set < c.Sets(); set++ {
			for way := 0; way < c.Ways(); way++ {
				tag := c.tags[set*c.Ways()+way]
				if tag == invalidTag {
					continue
				}
				addr := tag << c.lineShift
				owned := ownedA
				if addr >= baseB {
					owned = ownedB
				}
				if owned&(1<<uint(way)) == 0 {
					t.Fatalf("policy %d: line %#x resident in un-owned way %d", pol, addr, way)
				}
			}
		}
	}
}

// CAT semantics: a context still *hits* on lines outside its partition.
func TestAccessMaskedHitsAnywhere(t *testing.T) {
	p := isa.CacheParams{SizeBytes: 8 << 10, Ways: 8, LineBytes: 64, Policy: isa.PolicyLRU}
	c := New("cat", p)
	addr := uint64(0x1000)
	if c.AccessMasked(addr, true, 0xf0) {
		t.Fatal("cold access hit")
	}
	// The line sits in a high way; a context owning only low ways hits it.
	if !c.AccessMasked(addr, true, 0x0f) {
		t.Fatal("cross-partition lookup missed a resident line")
	}
}

// refAccess is Access as it stood before victim selection skipped scans
// whose result cannot matter: the invalid-way scan always runs, and the LRU
// stamp scan runs even when a random draw then replaces its choice.
func (c *Cache) refAccess(addr uint64, allocate bool) bool {
	c.clock++
	c.accesses++
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == line {
			c.hits++
			c.stamp[i] = c.clock
			return true
		}
	}
	c.misses++
	victim, haveInvalid := base, false
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == invalidTag {
			victim, haveInvalid = i, true
			break
		}
	}
	if !haveInvalid {
		oldest := ^uint64(0)
		for i := base; i < base+c.ways; i++ {
			if c.stamp[i] < oldest {
				victim, oldest = i, c.stamp[i]
			}
		}
		if c.policy == isa.PolicyRandom {
			victim = base + c.rng.Intn(c.ways)
		}
	}
	if allocate {
		if haveInvalid {
			c.lines++
		} else {
			c.evicts++
		}
		c.tags[victim] = line
		c.stamp[victim] = c.clock
	}
	return false
}

// refAccessMasked is AccessMasked as it stood before the same change.
func (c *Cache) refAccessMasked(addr uint64, allocate bool, mask uint64) bool {
	c.clock++
	c.accesses++
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == line {
			c.hits++
			c.stamp[i] = c.clock
			return true
		}
	}
	c.misses++
	victim, haveInvalid := -1, false
	for i := 0; i < c.ways; i++ {
		if mask&(1<<uint(i)) != 0 && c.tags[base+i] == invalidTag {
			victim, haveInvalid = base+i, true
			break
		}
	}
	if !haveInvalid {
		oldest := ^uint64(0)
		for i := 0; i < c.ways; i++ {
			if mask&(1<<uint(i)) != 0 && c.stamp[base+i] < oldest {
				victim, oldest = base+i, c.stamp[base+i]
			}
		}
		if victim >= 0 && c.policy == isa.PolicyRandom {
			k := c.rng.Intn(bits.OnesCount64(mask & (uint64(1)<<uint(c.ways) - 1)))
			m := mask
			for ; k > 0; k-- {
				m &= m - 1
			}
			victim = base + bits.TrailingZeros64(m)
		}
	}
	if allocate && victim >= 0 {
		if haveInvalid {
			c.lines++
		} else {
			c.evicts++
		}
		c.tags[victim] = line
		c.stamp[victim] = c.clock
	}
	return false
}

// wayOf returns the way holding addr's line, or -1.
func (c *Cache) wayOf(addr uint64) int {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.ways
	for i := 0; i < c.ways; i++ {
		if c.tags[base+i] == line {
			return i
		}
	}
	return -1
}

// TestRandomMissVictimSequence: skipping the stamp scan a random draw
// overrides, and the invalid-way scan once every line is valid, changes no
// victim. Over 10⁵ seeded misses (plus the hits between them) the new
// Access and AccessMasked fill the same ways as the former code and leave
// the same state, RNG position included.
func TestRandomMissVictimSequence(t *testing.T) {
	p := isa.CacheParams{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Policy: isa.PolicyRandom}
	for _, masked := range []bool{false, true} {
		got, want := New("rand", p), New("rand", p)
		rng := xrand.New(0x5eed)
		misses := 0
		for misses < 100_000 {
			addr := rng.Uint64n(1 << 18)
			mask := uint64(1)<<8 - 1
			if masked {
				mask = rng.Uint64n(1 << 8) // includes masks owning no way
			}
			allocate := rng.Intn(16) != 0
			var hg, hw bool
			if masked {
				hg, hw = got.AccessMasked(addr, allocate, mask), want.refAccessMasked(addr, allocate, mask)
			} else {
				hg, hw = got.Access(addr, allocate), want.refAccess(addr, allocate)
			}
			if hg != hw || got.wayOf(addr) != want.wayOf(addr) {
				t.Fatalf("masked=%v access %#x: hit %v way %d, former code hit %v way %d",
					masked, addr, hg, got.wayOf(addr), hw, want.wayOf(addr))
			}
			if !hg {
				misses++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("masked=%v: state diverged from the former code after %d misses", masked, misses)
		}
		if _, _, e := got.Stats(); e == 0 {
			t.Errorf("masked=%v: no evictions, the random draw was never exercised", masked)
		}
	}
}

// TestFillMatchesAccessMiss: Fill and FillMasked on a line that is not
// resident leave exactly the state Access and AccessMasked leave on that
// miss, under both policies and arbitrary CAT masks.
func TestFillMatchesAccessMiss(t *testing.T) {
	for _, pol := range []isa.ReplacementPolicy{isa.PolicyLRU, isa.PolicyRandom} {
		p := isa.CacheParams{SizeBytes: 16 << 10, Ways: 8, LineBytes: 64, Policy: pol}
		for _, masked := range []bool{false, true} {
			filled, accessed := New("fill", p), New("fill", p)
			rng := xrand.New(11)
			fills := 0
			for i := 0; i < 100_000; i++ {
				addr := rng.Uint64n(1 << 17)
				mask := rng.Uint64n(1 << 8)
				switch resident := accessed.Contains(addr); {
				case resident && masked:
					filled.AccessMasked(addr, true, mask)
					accessed.AccessMasked(addr, true, mask)
				case resident:
					filled.Access(addr, true)
					accessed.Access(addr, true)
				case masked:
					filled.FillMasked(addr, mask)
					accessed.AccessMasked(addr, true, mask)
					fills++
				default:
					filled.Fill(addr)
					accessed.Access(addr, true)
					fills++
				}
			}
			if !reflect.DeepEqual(filled, accessed) {
				t.Errorf("policy %d masked=%v: Fill diverged from a missing Access over %d fills", pol, masked, fills)
			}
		}
	}
}
