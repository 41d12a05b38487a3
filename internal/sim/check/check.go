// Package check implements the runtime invariant checker for the SMT
// simulator engine — the first half of the verification layer (the second
// is the metamorphic harness in internal/simtest).
//
// Every prediction SMiTe makes is downstream of the engine's PMU counters,
// so a silent accounting regression corrupts the whole reproduction without
// failing a point-value test. The checker therefore validates physical
// conservation laws the engine must obey by construction, every N cycles
// and at the end of each Run window:
//
//   - PMU monotonicity: cumulative counters never decrease.
//   - Uop conservation: retired ≤ fetched; the retired-instruction counter
//     moves in lockstep with ROB head progress; in-flight uops fit the ROB;
//     fetch, retire and dispatch respect the configured widths.
//   - Per-port utilization ≤ 1: a core's two contexts together never
//     dispatch more than one micro-op per port per cycle.
//   - Cache accounting: hits+misses == accesses, evictions ≤ misses, and
//     lines present never exceed capacity, at every level.
//   - Memory-hierarchy conservation per context: every load/store resolves
//     at exactly one level (L1 hits+misses == loads+stores, L2 lookups ==
//     L1 misses, L3 lookups == L2 misses, DRAM accesses == L3 misses).
//   - Cycle accounting: an active context's cycle counter tracks chip time
//     exactly; an idle context's counters stay frozen.
//   - Isolation confinement: under a CAT way partition every valid L3 line
//     sits in a way its owning context's mask allows (a context hits
//     anywhere but fills only inside its mask). The owner is recovered
//     from the line's address (engine.OwnerOf). Scanning the whole L3 is
//     too costly for every interval, so this law is checked when counter
//     baselines move (OnReset) and at the end of each Run window.
//
// Violations are returned as structured *Violation errors naming the cycle,
// core, context and counter; the engine latches the first one (see
// engine.Chip.CheckErr). Cross-context isolation — co-scheduling affecting
// a context only through modeled contention paths — is a cross-run law and
// lives in internal/simtest.
package check

import (
	"fmt"

	"repro/internal/sim/cache"
	"repro/internal/sim/engine"
	"repro/internal/sim/isa"
	"repro/internal/sim/pmu"
)

// Violation is one invariant failure. Core and Context are -1 when the
// violation is not attributable to a specific core or hardware context.
type Violation struct {
	// Invariant names the violated law ("pmu-monotonicity", ...).
	Invariant string
	// Cycle is the chip cycle at which the violation was detected.
	Cycle uint64
	// Core and Context locate the offender (-1 = chip- or core-level).
	Core, Context int
	// Counter names the offending counter or structure.
	Counter string
	// Detail is a human-readable account of the violated relation.
	Detail string
}

// Error renders the violation with all its coordinates.
func (v *Violation) Error() string {
	where := "chip"
	if v.Core >= 0 {
		where = fmt.Sprintf("core %d", v.Core)
		if v.Context >= 0 {
			where += fmt.Sprintf(" ctx %d", v.Context)
		}
	}
	return fmt.Sprintf("check: %s violated at cycle %d (%s, counter %s): %s",
		v.Invariant, v.Cycle, where, v.Counter, v.Detail)
}

// ctxSnap is one hardware context's state at the last baseline or check.
type ctxSnap struct {
	active           bool
	ctr              pmu.Counters
	fetched, retired uint64
	// baseRetired is ROB head progress at the last baseline (OnReset), used
	// to tie the cumulative Instructions counter to retirement progress.
	baseRetired uint64
}

// cacheSnap is one cache's statistics at the last check.
type cacheSnap struct {
	accesses, hits, misses, evicts uint64
}

// Checker implements engine.Checker. Attach it with engine.Chip.SetChecker
// or the Attach convenience. The zero value is ready to use; it baselines
// itself on the first OnReset/OnCycle. Not safe for concurrent use (neither
// is the Chip).
type Checker struct {
	baselined bool
	cycle     uint64
	ctxs      []ctxSnap // core-major: ctxs[core*ContextsPerCore+ctx]
	caches    []cacheSnap
	memReqs   uint64

	// reported counts the Violations already returned to the engine, so one
	// found by OnReset (which cannot return it) is returned by the next
	// OnCycle or OnWindowEnd.
	reported int

	// Violations accumulates every violation seen (the engine additionally
	// latches the first); Checks counts OnCycle invocations.
	Violations []*Violation
	Checks     uint64
}

// New returns an empty checker.
func New() *Checker { return &Checker{} }

// Attach builds a checker and installs it on the chip with the given check
// interval (0 = engine default).
func Attach(chip *engine.Chip, interval uint64) *Checker {
	ch := New()
	chip.SetChecker(ch, interval)
	return ch
}

// Err returns the first recorded violation, or nil.
func (k *Checker) Err() error {
	if len(k.Violations) == 0 {
		return nil
	}
	return k.Violations[0]
}

// chipCaches enumerates the chip's caches in a stable order.
func chipCaches(c *engine.Chip) []*cache.Cache {
	cfg := c.Config()
	out := make([]*cache.Cache, 0, 2*cfg.Cores+1)
	for i := 0; i < cfg.Cores; i++ {
		out = append(out, c.CoreL1D(i), c.CoreL2(i))
	}
	return append(out, c.L3())
}

// OnReset re-baselines every snapshot; the engine calls it from Assign and
// ResetCounters, and SetChecker calls it on attach.
func (k *Checker) OnReset(c *engine.Chip) {
	cfg := c.Config()
	k.cycle = c.Cycle()
	k.ctxs = k.ctxs[:0]
	for core := 0; core < cfg.Cores; core++ {
		for ctx := 0; ctx < cfg.ContextsPerCore; ctx++ {
			fetched, retired := c.Progress(core, ctx)
			k.ctxs = append(k.ctxs, ctxSnap{
				active:      c.ContextActive(core, ctx),
				ctr:         c.Counters(core, ctx),
				fetched:     fetched,
				retired:     retired,
				baseRetired: retired - c.Counters(core, ctx).Instructions,
			})
		}
	}
	k.caches = k.caches[:0]
	for _, ca := range chipCaches(c) {
		h, m, e := ca.Stats()
		k.caches = append(k.caches, cacheSnap{accesses: ca.Accesses(), hits: h, misses: m, evicts: e})
	}
	reqs, _, _ := c.Memory().Stats()
	k.memReqs = reqs
	k.baselined = true
	k.checkIsolation(c)
}

// OnWindowEnd validates the invariants checked once per Run window.
func (k *Checker) OnWindowEnd(c *engine.Chip) error {
	k.checkIsolation(c)
	return k.unreported()
}

// unreported returns the first violation not yet returned to the engine.
func (k *Checker) unreported() error {
	if len(k.Violations) == k.reported {
		return nil
	}
	v := k.Violations[k.reported]
	k.reported = len(k.Violations)
	return v
}

// OnCycle validates every invariant against the last snapshot, then
// re-snapshots. It returns the first violation found this check (all are
// also accumulated in Violations).
func (k *Checker) OnCycle(c *engine.Chip) error {
	if !k.baselined {
		k.OnReset(c)
		return nil
	}
	k.Checks++
	cfg := c.Config()
	now := c.Cycle()
	dCycles := now - k.cycle

	for core := 0; core < cfg.Cores; core++ {
		k.checkCore(c, core, dCycles)
	}
	k.checkCaches(c, now)

	reqs, _, _ := c.Memory().Stats()
	if reqs < k.memReqs {
		k.record(&Violation{
			Invariant: "pmu-monotonicity", Cycle: now, Core: -1, Context: -1,
			Counter: "mem.requests",
			Detail:  fmt.Sprintf("memory request count decreased %d -> %d", k.memReqs, reqs),
		})
	}

	// Re-baseline the rolling snapshots (keeping baseRetired fixed: the
	// Instructions/retirement tie is cumulative since the last reset).
	k.resnap(c)
	return k.unreported()
}

// resnap refreshes the rolling per-context and per-cache snapshots without
// moving the counter baselines.
func (k *Checker) resnap(c *engine.Chip) {
	cfg := c.Config()
	k.cycle = c.Cycle()
	for core := 0; core < cfg.Cores; core++ {
		for ctx := 0; ctx < cfg.ContextsPerCore; ctx++ {
			s := &k.ctxs[core*cfg.ContextsPerCore+ctx]
			s.active = c.ContextActive(core, ctx)
			s.ctr = c.Counters(core, ctx)
			s.fetched, s.retired = c.Progress(core, ctx)
		}
	}
	for i, ca := range chipCaches(c) {
		h, m, e := ca.Stats()
		k.caches[i] = cacheSnap{accesses: ca.Accesses(), hits: h, misses: m, evicts: e}
	}
	reqs, _, _ := c.Memory().Stats()
	k.memReqs = reqs
}

func (k *Checker) record(v *Violation) {
	k.Violations = append(k.Violations, v)
}

// checkCore validates all per-core and per-context invariants over the
// window of dCycles chip cycles since the last check.
func (k *Checker) checkCore(c *engine.Chip, core int, dCycles uint64) {
	cfg := c.Config()
	now := c.Cycle()
	var coreFetchDelta uint64
	var portDelta [isa.NumPorts]uint64

	for ctx := 0; ctx < cfg.ContextsPerCore; ctx++ {
		prev := &k.ctxs[core*cfg.ContextsPerCore+ctx]
		ctr := c.Counters(core, ctx)
		fetched, retired := c.Progress(core, ctx)
		active := c.ContextActive(core, ctx)

		// PMU monotonicity: cumulative counters never decrease.
		prevFields, nowFields := prev.ctr.FieldList(), ctr.FieldList()
		for i, f := range nowFields {
			if f.Value < prevFields[i].Value {
				k.record(&Violation{
					Invariant: "pmu-monotonicity", Cycle: now, Core: core, Context: ctx,
					Counter: f.Name,
					Detail:  fmt.Sprintf("counter decreased %d -> %d", prevFields[i].Value, f.Value),
				})
			}
		}

		// Cycle accounting: active contexts age exactly with the chip,
		// idle contexts not at all.
		dCtx := ctr.Cycles - prev.ctr.Cycles
		if active && prev.active && dCtx != dCycles {
			k.record(&Violation{
				Invariant: "cycle-accounting", Cycle: now, Core: core, Context: ctx,
				Counter: "Cycles",
				Detail:  fmt.Sprintf("active context aged %d cycles over a %d-cycle window", dCtx, dCycles),
			})
		}
		if !active && !prev.active && dCtx != 0 {
			k.record(&Violation{
				Invariant: "cycle-accounting", Cycle: now, Core: core, Context: ctx,
				Counter: "Cycles",
				Detail:  fmt.Sprintf("idle context aged %d cycles", dCtx),
			})
		}

		// Uop conservation.
		if retired > fetched {
			k.record(&Violation{
				Invariant: "uop-conservation", Cycle: now, Core: core, Context: ctx,
				Counter: "retired",
				Detail:  fmt.Sprintf("retired %d uops but fetched only %d", retired, fetched),
			})
		}
		if inflight := fetched - retired; inflight > uint64(cfg.ROBSize) {
			k.record(&Violation{
				Invariant: "uop-conservation", Cycle: now, Core: core, Context: ctx,
				Counter: "rob",
				Detail:  fmt.Sprintf("%d uops in flight exceed ROB size %d", inflight, cfg.ROBSize),
			})
		}
		if got, want := ctr.Instructions, retired-prev.baseRetired; got != want {
			k.record(&Violation{
				Invariant: "uop-conservation", Cycle: now, Core: core, Context: ctx,
				Counter: "Instructions",
				Detail:  fmt.Sprintf("retired-instruction counter %d does not match ROB retirement progress %d", got, want),
			})
		}
		if dRet := retired - prev.retired; dRet > uint64(cfg.RetireWidth)*dCycles {
			k.record(&Violation{
				Invariant: "uop-conservation", Cycle: now, Core: core, Context: ctx,
				Counter: "retired",
				Detail:  fmt.Sprintf("retired %d uops in %d cycles, exceeding retire width %d", dRet, dCycles, cfg.RetireWidth),
			})
		}
		// Every dispatched uop was fetched; in-flight boundary effects allow
		// at most one ROB of slack across a window.
		var dDispatch uint64
		for p := range ctr.PortUops {
			d := ctr.PortUops[p] - prev.ctr.PortUops[p]
			portDelta[p] += d
			dDispatch += d
		}
		if dFetch := fetched - prev.fetched; dDispatch > dFetch+uint64(cfg.ROBSize) {
			k.record(&Violation{
				Invariant: "uop-conservation", Cycle: now, Core: core, Context: ctx,
				Counter: "PortUops",
				Detail:  fmt.Sprintf("dispatched %d uops in a window that fetched %d (ROB %d)", dDispatch, dFetch, cfg.ROBSize),
			})
		}
		coreFetchDelta += fetched - prev.fetched

		// Memory-hierarchy conservation: each access resolves at exactly
		// one level, cumulatively since the last counter reset.
		for _, rel := range [...]struct {
			name       string
			got, want  uint64
			constraint string
		}{
			{"L1D", ctr.L1DHits + ctr.L1DMisses, ctr.Loads + ctr.Stores, "L1D hits+misses == loads+stores"},
			{"L2", ctr.L2Hits + ctr.L2Misses, ctr.L1DMisses, "L2 hits+misses == L1D misses"},
			{"L3", ctr.L3Hits + ctr.L3Misses, ctr.L2Misses, "L3 hits+misses == L2 misses"},
			{"MEM", ctr.MemAccesses, ctr.L3Misses, "DRAM accesses == L3 misses"},
		} {
			if rel.got != rel.want {
				k.record(&Violation{
					Invariant: "hierarchy-conservation", Cycle: now, Core: core, Context: ctx,
					Counter: rel.name,
					Detail:  fmt.Sprintf("%s: got %d, want %d", rel.constraint, rel.got, rel.want),
				})
			}
		}
		if ctr.BranchMispredicts > ctr.Branches {
			k.record(&Violation{
				Invariant: "hierarchy-conservation", Cycle: now, Core: core, Context: ctx,
				Counter: "BranchMispredicts",
				Detail:  fmt.Sprintf("%d mispredicts exceed %d branches", ctr.BranchMispredicts, ctr.Branches),
			})
		}
	}

	// Per-port utilization ≤ 1: one uop per port per cycle across the
	// core's two contexts.
	for p, d := range portDelta {
		if d > dCycles {
			k.record(&Violation{
				Invariant: "port-utilization", Cycle: now, Core: core, Context: -1,
				Counter: fmt.Sprintf("PortUops[%d]", p),
				Detail:  fmt.Sprintf("port dispatched %d uops in %d cycles (utilization > 1)", d, dCycles),
			})
		}
	}
	// Front-end conservation: the shared fetch unit allocates at most
	// FetchWidth uops per cycle across both contexts.
	if coreFetchDelta > uint64(cfg.FetchWidth)*dCycles {
		k.record(&Violation{
			Invariant: "uop-conservation", Cycle: now, Core: core, Context: -1,
			Counter: "fetched",
			Detail:  fmt.Sprintf("core fetched %d uops in %d cycles, exceeding fetch width %d", coreFetchDelta, dCycles, cfg.FetchWidth),
		})
	}
}

// checkCaches validates occupancy and tally accounting for every cache.
func (k *Checker) checkCaches(c *engine.Chip, now uint64) {
	for i, ca := range chipCaches(c) {
		h, m, e := ca.Stats()
		acc := ca.Accesses()
		prev := k.caches[i]
		if h < prev.hits || m < prev.misses || e < prev.evicts || acc < prev.accesses {
			k.record(&Violation{
				Invariant: "pmu-monotonicity", Cycle: now, Core: -1, Context: -1,
				Counter: ca.Name(),
				Detail: fmt.Sprintf("cache statistics decreased: %d/%d/%d/%d -> %d/%d/%d/%d",
					prev.accesses, prev.hits, prev.misses, prev.evicts, acc, h, m, e),
			})
		}
		if h+m != acc {
			k.record(&Violation{
				Invariant: "cache-accounting", Cycle: now, Core: -1, Context: -1,
				Counter: ca.Name(),
				Detail:  fmt.Sprintf("hits %d + misses %d != accesses %d", h, m, acc),
			})
		}
		if e > m {
			k.record(&Violation{
				Invariant: "cache-accounting", Cycle: now, Core: -1, Context: -1,
				Counter: ca.Name(),
				Detail:  fmt.Sprintf("evictions %d exceed misses %d", e, m),
			})
		}
		if lines, capacity := ca.LineCount(), ca.Sets()*ca.Ways(); lines > capacity {
			k.record(&Violation{
				Invariant: "cache-accounting", Cycle: now, Core: -1, Context: -1,
				Counter: ca.Name(),
				Detail:  fmt.Sprintf("%d lines present exceed capacity %d", lines, capacity),
			})
		}
	}
}

// checkIsolation validates CAT confinement: each valid L3 line sits in a
// way its owner's mask allows. It records at most one violation per scan
// and costs nothing unless an isolation policy is configured.
func (k *Checker) checkIsolation(c *engine.Chip) {
	cfg := c.Config()
	l3 := c.L3()
	if !cfg.Isolation.Enabled() || l3.LineCount() == 0 {
		return
	}
	ways := l3.Ways()
	for i := 0; i < l3.Sets()*ways; i++ {
		addr, ok := l3.LineAt(i)
		if !ok {
			continue
		}
		g, way := engine.OwnerOf(addr), i%ways
		if mask := cfg.Isolation.WayMaskFor(g, ways); mask&(1<<uint(way)) == 0 {
			k.record(&Violation{
				Invariant: "isolation-confinement", Cycle: c.Cycle(),
				Core: g / cfg.ContextsPerCore, Context: g % cfg.ContextsPerCore,
				Counter: l3.Name(),
				Detail:  fmt.Sprintf("line %#x sits in way %d, outside its owner's way mask %#x", addr, way, mask),
			})
			return
		}
	}
}
