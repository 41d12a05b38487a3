// Package cache implements the set-associative cache model used at every
// level of the simulated memory hierarchy (private L1D and L2, shared L3).
//
// The model is a classic tag array with true-LRU replacement. Hardware
// contexts are given disjoint address spaces by the engine, so two
// co-located applications never share lines but do contend for set capacity
// — which is exactly the interference channel SMiTe's L1/L2/L3 Rulers probe.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/sim/isa"
	"repro/internal/xrand"
)

// Cache is one level of set-associative cache with LRU replacement.
// It is not safe for concurrent use.
type Cache struct {
	name      string
	ways      int
	sets      int
	lineShift uint
	setMask   uint64

	tags    []uint64 // sets*ways entries; invalidTag marks an empty way
	lines   int      // number of valid entries
	stamp   []uint64 // LRU stamps
	clock   uint64
	policy  isa.ReplacementPolicy
	rng     *xrand.Rand // victim selection for PolicyRandom
	rngSeed uint64      // construction seed, so Reset restores the victim stream

	accesses uint64
	hits     uint64
	misses   uint64
	evicts   uint64
}

// New builds a cache from the geometry in p. It panics on invalid geometry;
// configurations are validated by isa.Config.Validate before reaching here.
func New(name string, p isa.CacheParams) *Cache {
	sets := p.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %s: set count %d must be a positive power of two", name, sets))
	}
	shift := uint(0)
	for l := p.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	if 1<<shift != p.LineBytes {
		panic(fmt.Sprintf("cache: %s: line size %d must be a power of two", name, p.LineBytes))
	}
	n := sets * p.Ways
	seed := uint64(len(name))*0x9E3779B97F4A7C15 + uint64(n)
	c := &Cache{
		name:      name,
		ways:      p.Ways,
		sets:      sets,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, n),
		stamp:     make([]uint64, n),
		policy:    p.Policy,
		rng:       xrand.New(seed),
		rngSeed:   seed,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// invalidTag marks an empty way. A real tag is addr >> lineShift and would
// need an address above 2^63 to collide; the engine's per-context address
// spaces live many orders of magnitude below that.
const invalidTag = ^uint64(0)

// Name returns the label given at construction.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets; Ways the associativity.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Access looks up addr and, when allocate is true, fills the line on a miss
// (evicting the LRU way). It returns true on a hit.
func (c *Cache) Access(addr uint64, allocate bool) bool {
	c.clock++
	c.accesses++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line // full line id as tag: unambiguous and cheap
	base := set * c.ways

	// Hit scan over the tag subslice alone: the common case touches one
	// array and defers all victim bookkeeping to the miss path.
	tags := c.tags[base : base+c.ways]
	for i, t := range tags {
		if t == tag {
			c.hits++
			c.stamp[base+i] = c.clock
			return true
		}
	}
	c.misses++
	victim, invalid := c.victim(base)
	if allocate {
		c.install(victim, invalid, tag)
	}
	return false
}

// Fill installs addr as a known miss: it is Access(addr, true) for a line
// the caller guarantees is not resident, so the hit scan is skipped. Tags,
// LRU stamps, clock, tallies and random-replacement draws are exactly those
// Access would produce. Chip.Prewarm's bulk footprint install relies on it;
// filling a resident line would duplicate it.
func (c *Cache) Fill(addr uint64) {
	c.clock++
	c.accesses++
	c.misses++
	line := addr >> c.lineShift
	victim, invalid := c.victim(int(line&c.setMask) * c.ways)
	c.install(victim, invalid, line)
}

// victim picks the way a miss in the set at base would fill: the first
// invalid way, else the first-oldest stamp under LRU or a uniform draw
// under PolicyRandom. Once every line is valid the invalid-way scan cannot
// succeed and is skipped; a random draw makes the LRU scan moot, so it runs
// only under LRU.
func (c *Cache) victim(base int) (victim int, invalid bool) {
	if c.lines < len(c.tags) {
		for i, t := range c.tags[base : base+c.ways] {
			if t == invalidTag {
				return base + i, true
			}
		}
	}
	if c.policy == isa.PolicyRandom {
		return base + c.rng.Intn(c.ways), false
	}
	victim = base
	oldest := ^uint64(0)
	for i, s := range c.stamp[base : base+c.ways] {
		if s < oldest {
			victim = base + i
			oldest = s
		}
	}
	return victim, false
}

// install writes tag into way i, counting a fill of an invalid way as a new
// line and any other fill as an eviction.
func (c *Cache) install(i int, invalid bool, tag uint64) {
	if invalid {
		c.lines++
	} else {
		c.evicts++
	}
	c.tags[i] = tag
	c.stamp[i] = c.clock
}

// AccessMasked is Access with Intel CAT semantics: the lookup hits in any
// way, but on an allocating miss the victim is chosen only among the ways
// set in mask (bit i = way i). With every way set the victim selection —
// including the random-replacement RNG draw — is bit-identical to Access,
// so unrestricted contexts on a partitioned cache behave exactly as on an
// unpartitioned one. A mask owning no real way (rejected upstream by
// isol.Policy.Validate) records the miss but allocates nothing.
func (c *Cache) AccessMasked(addr uint64, allocate bool, mask uint64) bool {
	c.clock++
	c.accesses++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line
	base := set * c.ways

	tags := c.tags[base : base+c.ways]
	for i, t := range tags {
		if t == tag {
			c.hits++
			c.stamp[base+i] = c.clock
			return true
		}
	}
	c.misses++
	victim, invalid := c.victimMasked(base, mask)
	if allocate && victim >= 0 {
		c.install(victim, invalid, tag)
	}
	return false
}

// FillMasked is Fill under a CAT way mask: AccessMasked(addr, true, mask)
// for a line the caller guarantees is not resident anywhere in its set.
func (c *Cache) FillMasked(addr, mask uint64) {
	c.clock++
	c.accesses++
	c.misses++
	line := addr >> c.lineShift
	if victim, invalid := c.victimMasked(int(line&c.setMask)*c.ways, mask); victim >= 0 {
		c.install(victim, invalid, line)
	}
}

// victimMasked is victim restricted to the ways set in mask; it returns -1
// when mask owns no real way. A random draw picks the k-th owned way.
func (c *Cache) victimMasked(base int, mask uint64) (victim int, invalid bool) {
	if c.lines < len(c.tags) {
		for i, t := range c.tags[base : base+c.ways] {
			if mask&(1<<uint(i)) != 0 && t == invalidTag {
				return base + i, true
			}
		}
	}
	if c.policy == isa.PolicyRandom {
		owned := bits.OnesCount64(mask & (uint64(1)<<uint(c.ways) - 1))
		if owned == 0 {
			return -1, false
		}
		m := mask
		for k := c.rng.Intn(owned); k > 0; k-- {
			m &= m - 1
		}
		return base + bits.TrailingZeros64(m), false
	}
	victim = -1
	oldest := ^uint64(0)
	for i := 0; i < c.ways; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if s := c.stamp[base+i]; s < oldest {
			victim = base + i
			oldest = s
		}
	}
	return victim, false
}

// Contains reports whether addr is currently resident, without touching LRU
// state or counters. Intended for tests and invariant checks.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag {
			return true
		}
	}
	return false
}

// LineAt reports the line held in flat slot i (set i/Ways(), way
// i%Ways()), as the address of its first byte, and whether the slot is
// valid. Intended for invariant checks that must attribute lines to ways.
func (c *Cache) LineAt(i int) (addr uint64, ok bool) {
	if t := c.tags[i]; t != invalidTag {
		return t << c.lineShift, true
	}
	return 0, false
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evicts uint64) {
	return c.hits, c.misses, c.evicts
}

// Accesses returns the cumulative lookup count. It is maintained
// independently of hits and misses so that the invariant checker can verify
// hits+misses == accesses (a tally any future fast-path refactor could
// silently break).
func (c *Cache) Accesses() uint64 { return c.accesses }

// LineCount returns the number of currently valid lines (≤ Sets()*Ways()).
// It is O(1): the count is maintained on fill and flush, so the invariant
// checker can poll it every interval without scanning the tag array.
func (c *Cache) LineCount() int { return c.lines }

// ResetStats zeroes the counters without disturbing cache contents, so
// measurement windows can exclude warm-up.
func (c *Cache) ResetStats() {
	c.accesses, c.hits, c.misses, c.evicts = 0, 0, 0, 0
}

// Flush invalidates every line and zeroes statistics.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.stamp)
	c.lines = 0
	c.clock = 0
	c.ResetStats()
}

// Reset restores the cache to its post-New state: every line invalid, all
// statistics zero, and the random-replacement victim stream rewound to its
// construction seed — so a reused cache behaves bit-identically to a fresh
// one (Flush alone leaves the victim RNG advanced).
func (c *Cache) Reset() {
	c.Flush()
	c.rng.Seed(c.rngSeed)
}

// Occupancy returns the fraction of valid lines, a cheap proxy for how much
// of the capacity a workload has claimed.
func (c *Cache) Occupancy() float64 {
	return float64(c.LineCount()) / float64(len(c.tags))
}
