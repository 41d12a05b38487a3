// Package tlb implements a small set-associative data TLB with LRU
// replacement.
//
// The PMU baseline model in the paper (Equation 9) consumes
// dTLB-load-misses/cycle and dTLB-store-misses/cycle, so the simulator
// models the DTLB explicitly: each data access translates its page, and a
// miss adds a page-walk penalty to the access latency. Co-located contexts
// share the structure, so large-footprint neighbours evict translations —
// another minor interference channel absorbed by SMiTe's constant term.
package tlb

// ways is the associativity of the TLB (4-way, as on Sandy Bridge DTLBs).
const ways = 4

// TLB is a set-associative translation buffer with LRU replacement.
// It is not safe for concurrent use.
type TLB struct {
	pages     []uint64 // invalidPage marks an empty entry
	stamp     []uint64
	clock     uint64
	setMask   uint64
	pageShift uint

	hits   uint64
	misses uint64
}

// invalidPage marks an empty entry. A real page number is addr >> pageShift
// and cannot reach it for any address the engine generates.
const invalidPage = ^uint64(0)

// New builds a TLB with the given entry count (rounded down to a multiple
// of the associativity, minimum one set) over pages of pageBytes, which
// must be a power of two.
func New(entries, pageBytes int) *TLB {
	if entries <= 0 {
		panic("tlb: entries must be positive")
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("tlb: page size must be a positive power of two")
	}
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	// Round sets down to a power of two for mask indexing.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	shift := uint(0)
	for p := pageBytes; p > 1; p >>= 1 {
		shift++
	}
	n := sets * ways
	t := &TLB{
		pages:     make([]uint64, n),
		stamp:     make([]uint64, n),
		setMask:   uint64(sets - 1),
		pageShift: shift,
	}
	for i := range t.pages {
		t.pages[i] = invalidPage
	}
	return t
}

// Entries returns the total entry count.
func (t *TLB) Entries() int { return len(t.pages) }

// Access translates addr, filling on a miss, and returns true on a hit.
func (t *TLB) Access(addr uint64) bool {
	_, hit := t.access(addr)
	return hit
}

// AccessN is n ≥ 1 back-to-back Access(addr) calls in closed form: one
// probe, then n-1 hits on the entry the probe left resident (the most
// recently used one, which nothing can evict between the touches). Pages,
// stamps, clock and counters end exactly as the n calls leave them.
func (t *TLB) AccessN(addr, n uint64) {
	i, _ := t.access(addr)
	t.clock += n - 1
	t.hits += n - 1
	t.stamp[i] = t.clock
}

// access is Access reporting also the entry that now holds addr's page.
func (t *TLB) access(addr uint64) (entry int, hit bool) {
	t.clock++
	page := addr >> t.pageShift
	base := int(page&t.setMask) * ways
	pages := t.pages[base : base+ways]
	for i, p := range pages {
		if p == page {
			t.hits++
			t.stamp[base+i] = t.clock
			return base + i, true
		}
	}
	t.misses++
	// Victim: first invalid entry, else first-oldest stamp (the same
	// choice the former combined scan made).
	victim := base
	haveInvalid := false
	for i, p := range pages {
		if p == invalidPage {
			victim = base + i
			haveInvalid = true
			break
		}
	}
	if !haveInvalid {
		oldest := ^uint64(0)
		stamps := t.stamp[base : base+ways]
		for i, s := range stamps {
			if s < oldest {
				victim = base + i
				oldest = s
			}
		}
	}
	t.pages[victim] = page
	t.stamp[victim] = t.clock
	return victim, false
}

// Stats returns cumulative hits and misses.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// ResetStats zeroes the counters, keeping resident translations.
func (t *TLB) ResetStats() { t.hits, t.misses = 0, 0 }

// Flush invalidates all entries and zeroes statistics.
func (t *TLB) Flush() {
	for i := range t.pages {
		t.pages[i] = invalidPage
		t.stamp[i] = 0
	}
	t.clock = 0
	t.ResetStats()
}
