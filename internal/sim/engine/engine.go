// Package engine implements the cycle-approximate multicore SMT processor
// simulator that substitutes for the paper's real Sandy Bridge / Ivy Bridge
// testbed.
//
// Each core has ContextsPerCore hardware contexts (two on the stock
// HyperThreading parts, up to isa.MaxContextsPerCore) that *competitively
// share* everything SMiTe identifies as an SMT interference dimension:
//
//   - the six execution ports (one micro-op per port per cycle, arbitration
//     alternates priority between contexts every cycle),
//   - the front end (4-wide allocation alternates between contexts; a
//     stalled or full context yields its slot, as on real HyperThreading),
//   - the private L1D and L2 caches, the DTLB and the branch predictor,
//
// while all cores share the L3 and a bandwidth-limited memory controller.
// Performance interference between co-located streams therefore *emerges*
// from the same mechanisms the paper measures, rather than being asserted.
//
// Deliberate approximations (documented per DESIGN.md):
//   - Branch mispredictions stall the front end from resolve for the flush
//     penalty instead of squashing in-flight younger uops.
//   - Instruction-cache and ITLB misses are produced by the workload
//     generator (from its code footprint) rather than a simulated L1I.
//   - Stores complete through a store buffer at a fixed latency; their
//     hierarchy side effects (fills, bandwidth) are still modelled.
package engine

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/sim/branch"
	"repro/internal/sim/cache"
	"repro/internal/sim/isa"
	"repro/internal/sim/mem"
	"repro/internal/sim/pmu"
	"repro/internal/sim/tlb"
)

// Stream produces the dynamic micro-op stream of one hardware context.
// Implementations (workload models, Rulers) must be deterministic given
// their construction seed. Next must overwrite all fields it uses; the
// engine passes a zeroed Uop.
type Stream interface {
	Next(u *isa.Uop)
}

// FootprintDeclarer is an optional Stream extension: streams that keep
// byte ranges resident over a long execution declare their sizes (regions
// all start at the stream's address 0 and nest, so only sizes are needed).
// Chip.Prewarm installs the largest one, within a max-min fair share of
// the L3, straight into the context's DTLB and the cache hierarchy,
// approximating the steady-state residency that minutes of real execution
// would establish but short simulation windows cannot. The install leaves
// exactly the state a line-by-line load walk over the region would; it
// never calls Next, so declaring a footprint consumes none of the
// stream's randomness.
type FootprintDeclarer interface {
	// PrewarmFootprint returns region sizes in bytes, measured from the
	// stream's address 0.
	PrewarmFootprint() []uint64
}

// noDep marks an absent dependency.
const noDep = ^uint64(0)

// robEntry is one in-flight micro-op.
type robEntry struct {
	kind       isa.UopKind
	ports      isa.PortMask
	dep1, dep2 uint64 // absolute sequence numbers, noDep if none
	addr       uint64
	completeAt uint64
	// notReadyUntil caches the earliest cycle this entry's dependencies
	// could be satisfied, so the scheduler skips re-checking them. Issued
	// entries park at ^uint64(0): the issue scan then rejects both "already
	// issued" and "known not ready" with a single comparison.
	notReadyUntil uint64
	issued        bool
	mispredict    bool
}

// Context is one SMT hardware context: a stream, a private reorder buffer
// and its PMU counters.
type Context struct {
	stream   Stream
	active   bool
	addrBase uint64
	brSalt   uint32

	rob        []robEntry
	robMask    uint64 // len(rob)-1; ROB sizes are powers of two
	head, tail uint64 // absolute sequence numbers; entry i lives at rob[i&robMask]

	fetchStallUntil uint64
	missFree        []uint64 // completion cycles of outstanding L1D misses
	missMin         uint64   // earliest entry in missFree (fast-path skip)
	streams         []uint64 // stream prefetcher: last line id per tracked stream
	streamLRU       []uint64 // last-use stamps for stream replacement
	dtlb            *tlb.TLB // per-context half of the statically partitioned DTLB

	// uop is the fetch scratch buffer. Stream.Next is an interface call, so
	// a function-local Uop would escape to the heap on every fetch group;
	// reusing one per context keeps the cycle loop allocation-free.
	uop isa.Uop

	// ctr holds the cumulative PMU counters, except Cycles: an active
	// context ages exactly with the chip, so its cycle count is derived as
	// chip.cycle - cyclesBase when a snapshot is taken (Chip.Counters)
	// instead of being incremented per cycle per context.
	ctr        pmu.Counters
	cyclesBase uint64

	// Scan-park memo: while head and tail are unchanged and now is before
	// scanStallUntil, a previous full issue scan proved the window holds
	// nothing dispatchable — every entry was issued, waiting on a
	// dependency with a known completion cycle, or a memory op blocked
	// behind a full MSHR file (which frees exactly at missMin). Any event
	// that could change that verdict moves head (retire) or tail (fetch),
	// or arrives at one of those recorded cycles, so issueFrom can skip
	// the whole window scan until then.
	scanStallUntil     uint64
	scanHead, scanTail uint64

	// issuedPrefix is a scan accelerator: every sequence number in
	// [head, issuedPrefix) is issued. Issue scans start at the prefix end
	// instead of re-skipping the same issued entries each cycle; the
	// invariant holds because issued is monotonic for a live entry and
	// head never moves backwards.
	issuedPrefix uint64

	// awake is a per-ROB-slot bitmap (bit = slot&63 of word slot>>6) of
	// the entries an issue scan must visit: allocated non-Nop entries that
	// have not been dispatched and have not been parked on a stored
	// notReadyUntil hint. Parked entries drop out of the bitmap until
	// parkedMin — the minimum stored hint among them — expires, at which
	// point one full window scan rebuilds the bitmap and parkedMin. The
	// cheap bitmap walk is exact: while now < parkedMin every cleared
	// entry provably has notReadyUntil > now, which is precisely the set
	// a full scan would skip, so both paths dispatch identically.
	awake     []uint64
	parkedMin uint64 // 0 forces a full rebuild scan

	// wheel re-arms parked entries at exactly their hint cycle: bucket
	// c&63 holds awake-shaped bitmap words of the slots whose stored
	// notReadyUntil is cycle c (hints less than 64 cycles out; farther
	// hints fall back to parkedMin). step merges every due bucket into
	// awake before the cycle's issue scans — wheelMerged tracks the last
	// merged cycle so skipped-over buckets drain on arrival after an
	// idle skip. Early (spurious) wakes are harmless: the scan re-parks
	// the entry. Lost wakes cannot happen: every park records its hint
	// in exactly one of the two structures.
	wheel       []uint64 // 64 buckets × len(awake) words
	wheelMerged uint64

	// unissued counts live non-Nop ROB entries that have not dispatched;
	// when it is zero a wakeup scan has nothing to inspect (deep-stall
	// windows full of issued entries are bounded by the head completion).
	unissued uint64

	// minLat points at the chip-wide table of exact lower bounds on each
	// micro-op kind's issue-to-complete latency (see depHint).
	minLat *[isa.NumKinds]uint64

	// gid is the chip-global context id (core*ContextsPerCore + ctx),
	// the index into the isolation policy's way masks and DRAM budgets.
	gid int
}

func (c *Context) entry(seq uint64) *robEntry {
	return &c.rob[seq&c.robMask]
}

// park removes slot from the awake bitmap and schedules its re-arm: near
// hints go into the timing wheel at their exact cycle, far ones (and the
// ^uint64(0) issued sentinel, for which min is a no-op) into parkedMin.
func (c *Context) park(slot, hint, now uint64) {
	c.awake[slot>>6] &^= 1 << (slot & 63)
	if hint-now < 64 {
		c.wheel[(hint&63)*uint64(len(c.awake))+slot>>6] |= 1 << (slot & 63)
	} else if hint < c.parkedMin {
		c.parkedMin = hint
	}
}

// mergeWheel drains every wheel bucket due by now into the awake bitmap.
// Cycles can jump forward (Run's idle skip); a jump of 64 or more simply
// drains all buckets — content for cycles still in the future is woken
// early, which the scan handles by re-parking.
func (c *Context) mergeWheel(now uint64) {
	d := now - c.wheelMerged
	if d == 0 {
		return
	}
	c.wheelMerged = now
	if d > 64 {
		d = 64
	}
	nw := uint64(len(c.awake))
	for cyc := now - d + 1; cyc <= now; cyc++ {
		b := (cyc & 63) * nw
		for w := uint64(0); w < nw; w++ {
			if v := c.wheel[b+w]; v != 0 {
				c.awake[w] |= v
				c.wheel[b+w] = 0
			}
		}
	}
}

// depReady reports whether the dependency at absolute sequence dep has
// produced its result by cycle now.
func (c *Context) depReady(dep, now uint64) bool {
	if dep == noDep || dep < c.head {
		return true // retired (or no dependency)
	}
	e := c.entry(dep)
	return e.issued && e.completeAt <= now
}

// depHint reports whether e's dependencies are satisfied at now; when they
// are not, it returns the earliest future cycle at which a re-check could
// succeed. An issued dependency has an exact completion cycle. An unissued
// one has already been passed over this cycle (dependencies are older than
// their consumers and both scans — issueFrom and wakeup — visit the window
// oldest-first), so it issues at earliest now+1 and completes at earliest
// now+1+minLat[kind]; minLat is an exact lower bound on each kind's
// issue-to-complete latency, so the hint never overshoots the true ready
// cycle and results stay bit-identical.
func (c *Context) depHint(e *robEntry, now uint64) (hint uint64, ready bool) {
	hint = now
	if dep := e.dep1; dep != noDep && dep >= c.head {
		if d := &c.rob[dep&c.robMask]; !d.issued {
			hint = now + 1 + c.minLat[d.kind]
		} else if d.completeAt > hint {
			hint = d.completeAt
		}
	}
	if dep := e.dep2; dep != noDep && dep >= c.head {
		if d := &c.rob[dep&c.robMask]; !d.issued {
			if h := now + 1 + c.minLat[d.kind]; h > hint {
				hint = h
			}
		} else if d.completeAt > hint {
			hint = d.completeAt
		}
	}
	return hint, hint <= now
}

// Core is one physical core: ContextsPerCore SMT contexts sharing private
// caches, the DTLB, the branch predictor and the execution ports.
type Core struct {
	chip *Chip
	idx  int

	ctxs []*Context

	l1d  *cache.Cache
	l2   *cache.Cache
	pred *branch.Predictor

	// Per-core execution resources: copies of the chip-level configuration
	// on homogeneous parts, of the core's class on asymmetric (big/little)
	// ones. The hot paths read these instead of cfg so class dispatch costs
	// nothing per cycle.
	portMap [isa.NumKinds]isa.PortMask
	lat     [isa.NumKinds]uint64
	l1Lat   uint64
	l2Lat   uint64
}

// Checker is the narrow verification hook the runtime invariant checker
// (internal/sim/check) implements. The engine nil-checks it once per cycle,
// so simulation without a checker pays a single predictable branch.
//
// OnCycle is called with the chip after a cycle completes — every
// CheckInterval cycles and once more when a Run window ends (the retire
// barrier) — and returns a structured error describing the first invariant
// violation found, or nil. OnWindowEnd follows that last OnCycle, once per
// Run window, for invariants too costly to evaluate every interval (it
// returns violations the same way). OnReset is called whenever counter
// baselines move (Assign, ResetCounters) so the checker can re-snapshot.
type Checker interface {
	OnCycle(c *Chip) error
	OnWindowEnd(c *Chip) error
	OnReset(c *Chip)
}

// addrSpaceShift places each hardware context's addresses in a disjoint
// space: global context g owns [(g+1)<<addrSpaceShift, (g+2)<<addrSpaceShift).
const addrSpaceShift = 44

// OwnerOf returns the global context index (core*ContextsPerCore + context)
// whose address space holds addr, so a checker can attribute a resident
// cache line to the context that installed it.
func OwnerOf(addr uint64) int { return int(addr>>addrSpaceShift) - 1 }

// Sampler is the observability hook the timeline recorder
// (internal/obs/timeline) implements. OnSample fires at RunContext slice
// boundaries (every runContextSlice cycles and once at the end of the
// window) with the chip paused between cycles; implementations may only
// read — Counters, Cycle, Memory and friends — never mutate, so an
// attached sampler cannot perturb simulation results. OnReset fires, like
// Checker.OnReset, whenever counter baselines move (Assign, ResetCounters)
// so the sampler can re-baseline its deltas. The engine never calls the
// sampler from Run, which keeps the uninstrumented hot loop byte-for-byte
// unchanged.
type Sampler interface {
	OnSample(c *Chip)
	OnReset(c *Chip)
}

// Chip is the full simulated processor.
// It is not safe for concurrent use; run independent experiments on
// independent Chips.
type Chip struct {
	cfg     isa.Config
	cores   []*Core
	l3      *cache.Cache
	memc    *mem.Controller
	cycle   uint64
	skipped uint64 // cycles jumped over by Run's idle-skip (telemetry only)

	// minLat holds, per micro-op kind, an exact lower bound on the
	// issue-to-complete latency; every Context points here (see depHint).
	minLat [isa.NumKinds]uint64

	checker       Checker
	checkInterval uint64
	checkErr      error

	sampler Sampler

	// iso is the compiled isolation policy (cfg.Isolation): per-global-
	// context L3 allocation masks and DRAM token buckets. nil when the
	// policy is disabled, which keeps every hot-path hook a single
	// predictable branch and results bit-identical to pre-isolation code.
	iso *isoState
}

// isoState is the engine-side compilation of an enabled isol.Policy.
type isoState struct {
	wayMask []uint64       // per gid: L3 way-allocation mask
	tb      []mem.Throttle // per gid: DRAM request shaper (zero = unthrottled)
}

// New builds a chip for the given configuration. It returns an error if the
// configuration is invalid.
func New(cfg isa.Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Prewarm installs footprints at the L3 line stride, which is exact only
	// while no private cache line spans two of its addresses.
	private := []isa.CacheParams{cfg.L1D, cfg.L2}
	for _, cl := range cfg.Classes {
		private = append(private, cl.L1D, cl.L2)
	}
	for _, p := range private {
		if p.LineBytes > cfg.L3.LineBytes {
			return nil, fmt.Errorf("engine: config %q: private cache line %d bytes exceeds the L3 line %d", cfg.Name, p.LineBytes, cfg.L3.LineBytes)
		}
	}
	c := &Chip{
		cfg:  cfg,
		l3:   cache.New("L3", cfg.L3),
		memc: mem.New(cfg.MemBaseLatency, cfg.MemServiceInterval),
	}
	// Exact issue-to-complete latency floors: ALU kinds and branches always
	// take Latency[kind]; a store completes through the store buffer in
	// StoreLatency; a load's best case is a DTLB hit plus an L1D hit. On
	// asymmetric parts the floor is the minimum across classes — a lower
	// bound stays a lower bound, and an early hint only re-runs a scan.
	c.minLat = cfg.Latency
	c.minLat[isa.Nop] = 0
	c.minLat[isa.Load] = cfg.L1D.LatencyCycles
	c.minLat[isa.Store] = cfg.StoreLatency
	for i := range cfg.Classes {
		cl := &cfg.Classes[i]
		for k := isa.UopKind(1); k < isa.NumKinds; k++ {
			if k != isa.Load && k != isa.Store && cl.Latency[k] < c.minLat[k] {
				c.minLat[k] = cl.Latency[k]
			}
		}
		if cl.L1D.LatencyCycles < c.minLat[isa.Load] {
			c.minLat[isa.Load] = cl.L1D.LatencyCycles
		}
	}
	if cfg.Isolation.Enabled() {
		n := cfg.Contexts()
		c.iso = &isoState{
			wayMask: make([]uint64, n),
			tb:      make([]mem.Throttle, n),
		}
		for g := 0; g < n; g++ {
			c.iso.wayMask[g] = cfg.Isolation.WayMaskFor(g, cfg.L3.Ways)
			if b := cfg.Isolation.BudgetFor(g); b.Enabled() {
				c.iso.tb[g] = mem.NewThrottle(b.Tokens, b.RefillCycles)
			}
		}
	}
	for i := 0; i < cfg.Cores; i++ {
		l1d, l2 := cfg.L1D, cfg.L2
		portMap, lat := cfg.PortMap, cfg.Latency
		if _, cl := cfg.CoreClassOf(i); cl != nil {
			l1d, l2 = cl.L1D, cl.L2
			portMap, lat = cl.PortMap, cl.Latency
		}
		co := &Core{
			chip:    c,
			idx:     i,
			ctxs:    make([]*Context, cfg.ContextsPerCore),
			l1d:     cache.New(fmt.Sprintf("core%d.L1D", i), l1d),
			l2:      cache.New(fmt.Sprintf("core%d.L2", i), l2),
			pred:    branch.New(cfg.BranchPredictorEntries),
			portMap: portMap,
			lat:     lat,
			l1Lat:   l1d.LatencyCycles,
			l2Lat:   l2.LatencyCycles,
		}
		for k := range co.ctxs {
			gid := i*cfg.ContextsPerCore + k
			co.ctxs[k] = &Context{
				rob:      make([]robEntry, cfg.ROBSize),
				robMask:  uint64(cfg.ROBSize - 1),
				awake:    make([]uint64, (cfg.ROBSize+63)/64),
				wheel:    make([]uint64, 64*((cfg.ROBSize+63)/64)),
				addrBase: (uint64(gid) + 1) << addrSpaceShift,
				brSalt:   uint32(gid+1) * 0x9E3779B9,
				missFree: make([]uint64, 0, cfg.MSHRsPerContext),
				// The DTLB is statically partitioned between the core's
				// hardware contexts, as several per-thread front-end
				// structures are on real SMT parts; this keeps TLB reach
				// identical between solo and co-located runs.
				dtlb:   tlb.New(cfg.DTLBEntries/cfg.ContextsPerCore, cfg.PageBytes),
				minLat: &c.minLat,
				gid:    gid,
			}
			if cfg.StreamPrefetcher {
				ns := cfg.PrefetchStreams
				if ns < 1 {
					ns = 4
				}
				co.ctxs[k].streams = make([]uint64, ns)
				co.ctxs[k].streamLRU = make([]uint64, ns)
				for i := range co.ctxs[k].streams {
					co.ctxs[k].streams[i] = ^uint64(0)
				}
			}
		}
		c.cores = append(c.cores, co)
	}
	return c, nil
}

// MustNew is New but panics on error; convenient for tests and internal
// callers that pass stock configurations.
func MustNew(cfg isa.Config) *Chip {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// SetSampler attaches (or, with nil, detaches) a timeline sampler.
// See Sampler for the observation contract; only RunContext consults it.
func (c *Chip) SetSampler(s Sampler) { c.sampler = s }

// Config returns the chip's configuration.
func (c *Chip) Config() isa.Config { return c.cfg }

// Cycle returns the current simulation cycle.
func (c *Chip) Cycle() uint64 { return c.cycle }

// IdleSkipped returns the cumulative number of cycles Run's idle-skip
// jumped over instead of iterating. Telemetry only: skipped cycles are
// indistinguishable from iterated ones in every counter and result.
func (c *Chip) IdleSkipped() uint64 { return c.skipped }

// SetChecker attaches (or, with nil, detaches) a runtime invariant checker.
// OnCycle fires every interval cycles (0 means every 1024) and at the end
// of each Run window; the first violation is latched and readable via
// CheckErr. Attaching re-baselines the checker immediately.
func (c *Chip) SetChecker(ch Checker, interval uint64) {
	c.checker = ch
	if interval == 0 {
		interval = 1024
	}
	c.checkInterval = interval
	c.checkErr = nil
	if ch != nil {
		ch.OnReset(c)
	}
}

// CheckErr returns the first invariant violation the attached checker has
// reported (nil when no checker is attached or no violation occurred).
func (c *Chip) CheckErr() error { return c.checkErr }

// Progress returns a context's absolute pipeline progress: micro-ops
// allocated (fetched) into and retired from its ROB since the last Assign.
// The invariant checker uses it for uop-conservation accounting.
func (c *Chip) Progress(core, ctx int) (fetched, retired uint64) {
	x := c.cores[core].ctxs[ctx]
	return x.tail, x.head
}

// ContextActive reports whether a hardware context has a stream assigned.
func (c *Chip) ContextActive(core, ctx int) bool {
	return c.cores[core].ctxs[ctx].active
}

// CorruptCounterForTest deliberately injects retired-instruction counter
// drift into a context — the kind of silent accounting bug the verification
// layer exists to catch. It is exported only so the checker's tests can
// prove a violation is detected; never call it outside tests.
func (c *Chip) CorruptCounterForTest(core, ctx int, delta int64) {
	c.cores[core].ctxs[ctx].ctr.Instructions += uint64(delta)
}

// Assign places a stream on the given hardware context. Passing a nil
// stream deactivates the context. Assign resets the context's pipeline
// state and counters but leaves shared state (caches, predictor) warm.
func (c *Chip) Assign(core, ctx int, s Stream) {
	if core < 0 || core >= len(c.cores) || ctx < 0 || ctx >= c.cfg.ContextsPerCore {
		panic(fmt.Sprintf("engine: Assign(%d,%d) out of range for %d cores × %d contexts", core, ctx, len(c.cores), c.cfg.ContextsPerCore))
	}
	x := c.cores[core].ctxs[ctx]
	x.stream = s
	x.active = s != nil
	x.head, x.tail = 0, 0
	x.fetchStallUntil = 0
	x.scanStallUntil = 0
	x.issuedPrefix = 0
	for i := range x.awake {
		x.awake[i] = 0
	}
	x.parkedMin = 0
	for i := range x.wheel {
		x.wheel[i] = 0
	}
	x.wheelMerged = c.cycle
	x.unissued = 0
	x.missFree = x.missFree[:0]
	x.missMin = ^uint64(0)
	for i := range x.streams {
		x.streams[i] = ^uint64(0)
		x.streamLRU[i] = 0
	}
	x.ctr = pmu.Counters{}
	x.cyclesBase = c.cycle
	if c.iso != nil {
		c.iso.tb[x.gid].Reset()
	}
	if c.checker != nil {
		c.checker.OnReset(c)
	}
	if c.sampler != nil {
		c.sampler.OnReset(c)
	}
}

// Reset restores the chip to its post-New state: all contexts idle, every
// cache, TLB, predictor and the memory controller back to construction state
// (including random-replacement victim streams), the cycle counter at zero,
// and any checker or sampler detached. A Reset chip is bit-identical to a
// freshly constructed one in every subsequent simulation (pinned by
// TestResetBitIdentical), which is what lets the batched characterization
// path reuse one chip per scheduler worker instead of allocating per cell.
func (c *Chip) Reset() {
	c.cycle, c.skipped = 0, 0
	c.checker, c.checkErr = nil, nil
	c.checkInterval = 0
	c.sampler = nil
	c.l3.Reset()
	c.memc.Reset()
	if c.iso != nil {
		for i := range c.iso.tb {
			c.iso.tb[i].Reset()
		}
	}
	for _, co := range c.cores {
		co.l1d.Reset()
		co.l2.Reset()
		co.pred.Reset()
		for _, x := range co.ctxs {
			x.stream = nil
			x.active = false
			x.head, x.tail = 0, 0
			x.fetchStallUntil = 0
			x.scanStallUntil = 0
			x.scanHead, x.scanTail = 0, 0
			x.issuedPrefix = 0
			for i := range x.awake {
				x.awake[i] = 0
			}
			x.parkedMin = 0
			for i := range x.wheel {
				x.wheel[i] = 0
			}
			x.wheelMerged = 0
			x.unissued = 0
			x.missFree = x.missFree[:0]
			x.missMin = 0
			for i := range x.streams {
				x.streams[i] = ^uint64(0)
				x.streamLRU[i] = 0
			}
			x.dtlb.Flush()
			x.uop = isa.Uop{}
			x.ctr = pmu.Counters{}
			x.cyclesBase = 0
		}
	}
}

// Counters returns a snapshot of the context's cumulative PMU counters.
func (c *Chip) Counters(core, ctx int) pmu.Counters {
	x := c.cores[core].ctxs[ctx]
	ctr := x.ctr
	if x.active {
		ctr.Cycles = c.cycle - x.cyclesBase
	}
	return ctr
}

// ResetCounters zeroes every context's PMU counters (and the shared
// structures' statistics), marking the start of a measurement window while
// keeping all microarchitectural state warm.
func (c *Chip) ResetCounters() {
	for _, co := range c.cores {
		for _, x := range co.ctxs {
			x.ctr = pmu.Counters{}
			x.cyclesBase = c.cycle
		}
		co.l1d.ResetStats()
		co.l2.ResetStats()
		co.pred.ResetStats()
		for _, x := range co.ctxs {
			x.dtlb.ResetStats()
		}
	}
	c.l3.ResetStats()
	c.memc.ResetStats()
	if c.checker != nil {
		c.checker.OnReset(c)
	}
	if c.sampler != nil {
		c.sampler.OnReset(c)
	}
}

// L3 exposes the shared cache for tests and occupancy inspection.
func (c *Chip) L3() *cache.Cache { return c.l3 }

// Memory exposes the memory controller statistics.
func (c *Chip) Memory() *mem.Controller { return c.memc }

// CoreL1D exposes a core's private L1D (tests, occupancy inspection).
func (c *Chip) CoreL1D(core int) *cache.Cache { return c.cores[core].l1d }

// CoreL2 exposes a core's private L2.
func (c *Chip) CoreL2(core int) *cache.Cache { return c.cores[core].l2 }

// Prewarm functionally executes n micro-ops from every active context's
// stream, round-robin in small chunks, installing data footprints into the
// TLBs and cache hierarchy without advancing simulated time or touching the
// memory controller. It approximates the cache state a long-running
// co-location would have reached, which matters for working sets (multi-MiB
// warm regions) that timed warm-up windows cannot touch often enough.
// Counter pollution is removed by the ResetCounters call that starts every
// measurement window.
//
// Prewarm needs a cold chip: one fresh from New or Reset, on which only
// Assign (and SetChecker/SetSampler) has run. Its first step, the declared
// footprint install, is exact only when every cache starts empty (see
// installFootprints), so Prewarm panics when any cache holds a line, the
// way Assign panics on an out-of-range context.
func (c *Chip) Prewarm(n int) {
	if lines := c.l3.LineCount(); lines != 0 {
		panic(fmt.Sprintf("engine: Prewarm needs a cold chip (New or Reset), but the L3 holds %d lines", lines))
	}
	for _, co := range c.cores {
		if co.l1d.LineCount() != 0 || co.l2.LineCount() != 0 {
			panic(fmt.Sprintf("engine: Prewarm needs a cold chip (New or Reset), but core %d's caches hold lines", co.idx))
		}
	}
	c.installFootprints(c.footprintJobs())
	c.prewarmUops(n)
}

// prewarmUops is Prewarm's functional phase: n micro-ops from every active
// context, round-robin in chunks, through the predictor, DTLBs and caches.
func (c *Chip) prewarmUops(n int) {
	const chunk = 64
	for done := 0; done < n; done += chunk {
		for _, co := range c.cores {
			for _, x := range co.ctxs {
				if x == nil || !x.active {
					continue
				}
				u := &x.uop // reused scratch, as in fetchInto
				for i := 0; i < chunk; i++ {
					*u = isa.Uop{}
					x.stream.Next(u)
					switch u.Kind {
					case isa.Branch:
						// Train the predictor in uop time: large branch
						// working sets take hundreds of thousands of
						// cycles to converge in timed execution.
						co.pred.Lookup(u.BrTag*2654435761+x.brSalt, u.Taken)
					case isa.Load, isa.Store:
						addr := x.addrBase | u.Addr
						x.dtlb.Access(addr)
						if co.l1d.Access(addr, true) {
							continue
						}
						if co.l2.Access(addr, true) {
							continue
						}
						c.l3Access(x, addr)
					}
				}
			}
		}
	}
}

// footprintJob is one context's declared resident region, as installed by
// Prewarm: the first size bytes of the context's address space, of which
// the install has reached pos.
type footprintJob struct {
	co        *Core
	x         *Context
	size, pos uint64
}

// footprintJobs lists each active FootprintDeclarer context's install
// budget, core-major. Regions nest at address 0, so only the largest
// declared size counts; budgets are capped at the L3 capacity and share it
// max-min fairly.
func (c *Chip) footprintJobs() []footprintJob {
	var jobs []footprintJob
	for _, co := range c.cores {
		for _, x := range co.ctxs {
			if x == nil || !x.active {
				continue
			}
			fd, ok := x.stream.(FootprintDeclarer)
			if !ok {
				continue
			}
			size := uint64(0)
			for _, s := range fd.PrewarmFootprint() {
				if s > size {
					size = s
				}
			}
			if size > 0 {
				jobs = append(jobs, footprintJob{co: co, x: x, size: size})
			}
		}
	}
	// Allocate installation budgets max-min fairly within the L3 capacity:
	// contexts with small resident sets install them fully (a small,
	// frequently re-touched working set retains near-full occupancy at
	// steady state), while larger footprints split the remaining capacity.
	// Flooding the cache with one context's huge footprint would start the
	// measurement window from a state no steady state resembles.
	for j := range jobs {
		if max := uint64(c.cfg.L3.SizeBytes); jobs[j].size > max {
			jobs[j].size = max
		}
	}
	remaining := uint64(c.cfg.L3.SizeBytes)
	unmet := len(jobs)
	// Iteratively satisfy the smallest demands.
	done := make([]bool, len(jobs))
	for unmet > 0 {
		share := remaining / uint64(unmet)
		progressed := false
		for j := range jobs {
			if !done[j] && jobs[j].size <= share {
				done[j] = true
				remaining -= jobs[j].size
				unmet--
				progressed = true
			}
		}
		if !progressed {
			for j := range jobs {
				if !done[j] {
					jobs[j].size = share
					done[j] = true
					remaining -= share
					unmet--
				}
			}
		}
	}
	return jobs
}

// footprintChunk is the interleaving grain of the footprint install: jobs
// take turns installing this many lines each, so shared-cache state starts
// from a fair mixture rather than last-writer-wins.
const footprintChunk = 16

// installFootprints installs each job's region, one L3 line at a time from
// address 0, into its context's DTLB, its core's L1D and L2 and the L3.
// Jobs take turns in footprintChunk-line chunks in job order, so the job on
// context 0 installs before its sibling on context 1, matching the steady
// state in which the higher-rate co-runner (a Ruler) owns contended lines.
//
// The install writes the state the line-by-line lookup walk (Access at
// every level on each line) would leave, without the lookups. On a cold
// chip every footprint line is a compulsory miss at every level: contexts
// own disjoint address spaces (addrBase), each job's addresses strictly
// increase, and New rejects caches whose line is larger than the L3's, so
// no two walked addresses share a line at any level. A miss whose line is
// known absent needs no hit scan (Cache.Fill). Each DTLB is private to its
// context and sees only that job's ascending pages, so a page's touches
// are one probe followed by hits (TLB.AccessN). The caches still see every
// fill in the walk's order, which keeps LRU stamps, the random-replacement
// draws and the CAT-masked victims (Cache.FillMasked) exactly the walk's.
func (c *Chip) installFootprints(jobs []footprintJob) {
	line := uint64(c.cfg.L3.LineBytes)
	page := uint64(c.cfg.PageBytes)
	for _, jb := range jobs {
		// The walk touches the multiples of line below size; those in
		// [p, p+page) share one translation.
		for p := uint64(0); p < jb.size; p += page {
			first := (p + line - 1) / line * line
			end := min(p+page, jb.size)
			if first < end {
				jb.x.dtlb.AccessN(jb.x.addrBase|first, (end-first+line-1)/line)
			}
		}
	}
	for busy := true; busy; {
		busy = false
		for j := range jobs {
			jb := &jobs[j]
			stop := min(jb.pos+footprintChunk*line, jb.size)
			for ; jb.pos < stop; jb.pos += line {
				a := jb.x.addrBase | jb.pos
				jb.co.l1d.Fill(a)
				jb.co.l2.Fill(a)
				if c.iso == nil {
					c.l3.Fill(a)
				} else {
					c.l3.FillMasked(a, c.iso.wayMask[jb.x.gid])
				}
			}
			busy = busy || jb.pos < jb.size
		}
	}
}

// Run advances the chip by the given number of cycles. When a checker is
// attached it is consulted every checkInterval cycles and once at the end
// of the window; the first violation is latched (see CheckErr).
//
// Cycles on which no context can make progress are not iterated one by one:
// when a stepped cycle performs no fetch, issue or retirement, Run jumps
// directly to the earliest cycle at which any context could act again (a
// completion, an MSHR release or a front-end stall expiry — see
// Context.wakeup for the correctness argument). The skip changes no
// architectural or counter state, only how many times the loop spins; the
// golden PMU fixtures (internal/simtest) pin this bit-exactly. Checked runs
// do not skip, so the checker samples its invariants at exact interval
// boundaries; this also makes every checked-vs-unchecked counter comparison
// a test of the skip itself.
func (c *Chip) Run(cycles uint64) {
	end := c.cycle + cycles
	for c.cycle < end {
		now := c.cycle
		progress := false
		for _, co := range c.cores {
			if co.step(now) {
				progress = true
			}
		}
		c.cycle++
		if c.checker != nil {
			if c.cycle%c.checkInterval == 0 {
				c.runCheck()
			}
			continue
		}
		if !progress {
			if t := c.nextWakeup(now); t > c.cycle {
				if t > end {
					t = end
				}
				c.skipped += t - c.cycle
				c.cycle = t
			}
		}
	}
	if c.checker != nil {
		c.runCheck()
		if err := c.checker.OnWindowEnd(c); err != nil && c.checkErr == nil {
			c.checkErr = err
		}
	}
}

// runContextSlice is the cancellation granularity of RunContext: the
// context is polled once per this many simulated cycles. Small enough
// that a request deadline aborts a measurement window in a few
// milliseconds of wall-clock, large enough that the poll is invisible
// next to the per-cycle work.
const runContextSlice = 16 * 1024

// RunContext is Run with cooperative cancellation: the window is executed
// in runContextSlice-cycle slices with ctx polled between slices, so a
// request deadline or client disconnect aborts an in-flight simulation
// mid-window instead of after it. On cancellation the chip stops at a
// slice boundary and ctx.Err() is returned; the chip remains valid but
// its window is incomplete, so callers must discard the measurement.
//
// Chunking is invisible to results: cycle counts derive from the chip
// clock (not per-call state), an idle-skip clamped at a slice boundary
// resumes identically in the next slice, and a checker consulted at the
// extra boundaries only validates — it mutates nothing. A completed
// RunContext is therefore bit-identical to Run over the same window
// (pinned by TestRunContextMatchesRun against the golden fixtures' path).
// When a Sampler is attached the window is always sliced — even under a
// background context — and the sampler observes the chip at every slice
// boundary. Sampling is read-only, so the simulated results stay
// bit-identical with or without it (TestRunContextSamplerBitIdentical).
func (c *Chip) RunContext(ctx context.Context, cycles uint64) error {
	if ctx.Done() == nil && c.sampler == nil {
		// Background contexts cannot cancel; skip the slicing entirely.
		c.Run(cycles)
		return nil
	}
	for cycles > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		slice := uint64(runContextSlice)
		if slice > cycles {
			slice = cycles
		}
		c.Run(slice)
		cycles -= slice
		if c.sampler != nil {
			c.sampler.OnSample(c)
		}
	}
	return ctx.Err()
}

// nextWakeup returns a conservative lower bound (> now) on the next cycle
// at which any active context could make progress, assuming none did at
// cycle now. ^uint64(0) means no context has a pending event (e.g. the
// chip is empty).
func (c *Chip) nextWakeup(now uint64) uint64 {
	t := ^uint64(0)
	for _, co := range c.cores {
		for _, x := range co.ctxs {
			if x == nil || !x.active {
				continue
			}
			if w := x.wakeup(&c.cfg, now); w < t {
				t = w
			}
		}
	}
	return t
}

// wakeup computes the earliest cycle (> now) at which the context could
// fetch, issue or retire, given that it made no progress at cycle now. The
// bound is conservative — waking early merely re-runs the idle check —
// and it is exact for the three event sources a stalled context has:
//
//   - fetch resumes when fetchStallUntil expires (or, if the ROB is full,
//     only after a retirement, which the other bounds cover);
//   - the head of the ROB retires when its completion cycle arrives;
//   - an unissued micro-op becomes issueable when its dependencies
//     complete (depHint) or, for memory ops under a full MSHR file, when
//     the earliest outstanding miss resolves (missMin).
//
// Anything that could create a *new* event before those cycles would
// itself be progress at cycle now, which the caller has ruled out. The
// defensive now+1 returns cover states the no-progress precondition should
// exclude; they turn the skip into a no-op rather than risking one.
func (x *Context) wakeup(cfg *isa.Config, now uint64) uint64 {
	t := ^uint64(0)
	if x.tail-x.head < uint64(cfg.ROBSize) {
		if x.fetchStallUntil <= now {
			return now + 1 // fetch is possible immediately
		}
		t = x.fetchStallUntil
	}
	if x.head == x.tail {
		return t // empty ROB: only fetch can create work
	}
	if e := x.entry(x.head); e.issued {
		if e.completeAt <= now {
			return now + 1 // retirement is already due
		}
		if e.completeAt < t {
			t = e.completeAt
		}
	}
	if x.unissued == 0 {
		return t // window is all issued: bounded by the head completion
	}
	mshrFull := len(x.missFree) >= cfg.MSHRsPerContext
	limit := x.head + uint64(cfg.IssueScanDepth)
	if limit > x.tail {
		limit = x.tail
	}
	start := x.head
	if x.issuedPrefix > start {
		start = x.issuedPrefix // [head, issuedPrefix) is all issued
	}
	for s := start; s < limit; s++ {
		e := x.entry(s)
		if e.issued {
			continue
		}
		// Always re-derive the hint here: a dependency may have issued
		// since it was stored, turning a weak lower bound into an exact
		// completion cycle — and a longer provably-idle stretch. Write it
		// back so the issue scan benefits too.
		hint, ready := x.depHint(e, now)
		if !ready {
			e.notReadyUntil = hint
			if hint < t {
				t = hint
			}
			continue
		}
		if mshrFull && (e.kind == isa.Load || e.kind == isa.Store) {
			if x.missMin < t {
				t = x.missMin
			}
			continue
		}
		return now + 1 // a ready micro-op exists; do not skip
	}
	return t
}

// runCheck consults the attached checker, latching its first violation.
func (c *Chip) runCheck() {
	if err := c.checker.OnCycle(c); err != nil && c.checkErr == nil {
		c.checkErr = err
	}
}

// step advances one core by one cycle: expire MSHRs, retire, issue, fetch.
// It reports whether any context made progress (retired, issued or fetched
// at least one micro-op) — the signal Run's idle-skip relies on.
func (co *Core) step(now uint64) bool {
	anyActive := false
	progress := false
	for _, x := range co.ctxs {
		if x == nil || !x.active {
			continue
		}
		anyActive = true
		x.mergeWheel(now)
		x.expireMisses(now)
		if x.retire(now, co.chip.cfg.RetireWidth) > 0 {
			progress = true
		}
	}
	if !anyActive {
		return false
	}
	if co.issue(now) {
		progress = true
	}
	if co.fetch(now) {
		progress = true
	}
	return progress
}

func (x *Context) expireMisses(now uint64) {
	if len(x.missFree) == 0 || x.missMin > now {
		return
	}
	out := x.missFree[:0]
	earliest := ^uint64(0)
	for _, t := range x.missFree {
		if t > now {
			out = append(out, t)
			if t < earliest {
				earliest = t
			}
		}
	}
	x.missFree = out
	x.missMin = earliest
}

// retire retires up to width completed micro-ops in order, returning the
// number retired. The Instructions counter is updated once per call, not
// per micro-op.
func (x *Context) retire(now uint64, width int) int {
	n := 0
	for ; n < width && x.head < x.tail; n++ {
		e := x.entry(x.head)
		if !e.issued || e.completeAt > now {
			break
		}
		x.head++
	}
	x.ctr.Instructions += uint64(n)
	return n
}

// issue performs the per-cycle dispatch: context priority rotates every
// cycle; the priority context's oldest ready micro-ops claim free ports
// first (each port accepts one micro-op per cycle), then its siblings fill
// what remains in rotation order. Under saturation each of the core's N
// contexts therefore receives 1/N of a contended port's slots, which is
// the competitive sharing SMiTe measures.
func (co *Core) issue(now uint64) bool {
	const allPorts = isa.PortMask(1<<isa.NumPorts - 1)
	free := allPorts
	nc := len(co.ctxs)
	// Rotate priority across the contexts every cycle; for nc == 2 the
	// visit order is bit-identical to the historical two-way alternation.
	pri := int((now + uint64(co.idx)) % uint64(nc))
	for t := 0; t < nc && free != 0; t++ {
		i := pri + t
		if i >= nc {
			i -= nc
		}
		x := co.ctxs[i]
		if x == nil || !x.active {
			continue
		}
		free = co.issueFrom(x, free, now)
	}
	return free != allPorts
}

// issueFrom scans x's oldest IssueScanDepth ROB entries (the reservation-
// station view) oldest-first, dispatching each ready micro-op to the lowest
// free port in its mask. It returns the ports still free.
func (co *Core) issueFrom(x *Context, free isa.PortMask, now uint64) isa.PortMask {
	if now < x.scanStallUntil && x.head == x.scanHead && x.tail == x.scanTail {
		return free // parked: window proven non-dispatchable until then
	}
	cfg := &co.chip.cfg
	mshrFull := len(x.missFree) >= cfg.MSHRsPerContext
	limit := x.head + uint64(cfg.IssueScanDepth)
	if limit > x.tail {
		limit = x.tail
	}
	// Local ring view: keeps the scan free of repeated slice-header loads,
	// and the notReadyUntil sentinel rejects issued and known-not-ready
	// entries with one comparison each.
	rob, mask := x.rob, x.robMask
	start := x.head
	if x.issuedPrefix > start {
		start = x.issuedPrefix
	}
	for start < limit && rob[start&mask].issued {
		start++
	}
	x.issuedPrefix = start
	if now < x.parkedMin {
		// Every bitmap-cleared entry still has notReadyUntil > now, so the
		// cheap walk over set bits visits exactly the entries a full scan
		// would not skip.
		return co.issueAwake(x, free, now, start, limit, mshrFull)
	}
	// Full rebuild scan: visit the whole window, re-deriving which entries
	// stay awake and the next parkedMin re-arm cycle.
	// parkable stays true only while every skipped entry carries an exact
	// future wakeup cycle (accumulated in parkUntil); a dispatch or a skip
	// for a transient reason (port taken this cycle) forbids parking.
	parkable := true
	parkUntil := ^uint64(0)
	x.parkedMin = ^uint64(0) // re-accumulated by the park calls below
	for s := start; s < limit; s++ {
		if free == 0 {
			// Unvisited entries keep stale bitmap state; rebuild next cycle.
			x.parkedMin = now + 1
			parkable = false
			break
		}
		slot := s & mask
		e := &rob[slot]
		if e.notReadyUntil > now {
			x.park(slot, e.notReadyUntil, now)
			if e.notReadyUntil < parkUntil {
				parkUntil = e.notReadyUntil
			}
			continue
		}
		avail := e.ports & free
		if avail == 0 {
			x.awake[slot>>6] |= 1 << (slot & 63)
			parkable = false
			continue
		}
		if mshrFull && (e.kind == isa.Load || e.kind == isa.Store) {
			// The MSHR file frees exactly at missMin, which cannot move
			// earlier while this context's memory ops are blocked, so the
			// entry can park on it like a dependency hint.
			e.notReadyUntil = x.missMin
			x.park(slot, x.missMin, now)
			if x.missMin < parkUntil {
				parkUntil = x.missMin
			}
			continue
		}
		if hint, ready := x.depHint(e, now); !ready {
			e.notReadyUntil = hint
			x.park(slot, hint, now)
			if hint < parkUntil {
				parkUntil = hint
			}
			continue
		}
		p := isa.Port(bits.TrailingZeros8(uint8(avail)))
		co.execute(x, e, p, now)
		x.awake[slot>>6] &^= 1 << (slot & 63)
		free &^= 1 << p
		parkable = false
	}
	if parkable && parkUntil > now+1 {
		x.scanStallUntil = parkUntil
		x.scanHead, x.scanTail = x.head, x.tail
	}
	return free
}

// issueAwake is issueFrom's fast path: it walks only the bitmap-set window
// entries (see Context.awake), dispatching by the same rules and in the
// same oldest-first order as the full scan.
func (co *Core) issueAwake(x *Context, free isa.PortMask, now uint64, start, limit uint64, mshrFull bool) isa.PortMask {
	rob, mask := x.rob, x.robMask
	n := uint64(len(rob))
	for base := start; base < limit && free != 0; {
		slot := base & mask
		word := slot >> 6
		off := slot & 63
		span := limit - base
		if rem := 64 - off; span > rem {
			span = rem // stay within one bitmap word
		}
		if rem := n - slot; span > rem {
			span = rem // stay within the ring
		}
		w := x.awake[word] >> off
		if span < 64 {
			w &= 1<<span - 1
		}
		for w != 0 && free != 0 {
			i := uint64(bits.TrailingZeros64(w))
			w &= w - 1
			e := &rob[slot+i]
			if e.notReadyUntil > now {
				// Issued or parked since the bit was set.
				x.park(slot+i, e.notReadyUntil, now)
				continue
			}
			avail := e.ports & free
			if avail == 0 {
				continue
			}
			if mshrFull && (e.kind == isa.Load || e.kind == isa.Store) {
				e.notReadyUntil = x.missMin // exact: MSHRs free at missMin
				x.park(slot+i, x.missMin, now)
				continue
			}
			if hint, ready := x.depHint(e, now); !ready {
				e.notReadyUntil = hint
				x.park(slot+i, hint, now)
				continue
			}
			p := isa.Port(bits.TrailingZeros8(uint8(avail)))
			co.execute(x, e, p, now)
			x.awake[word] &^= 1 << (off + i)
			free &^= 1 << p
		}
		base += span
	}
	return free
}

// execute dispatches e on port p at cycle now, computing its completion.
func (co *Core) execute(x *Context, e *robEntry, p isa.Port, now uint64) {
	cfg := &co.chip.cfg
	e.issued = true
	e.notReadyUntil = ^uint64(0) // sentinel: drop out of the issue scan
	x.unissued--
	x.ctr.PortUops[p]++
	switch e.kind {
	case isa.Load:
		lat, missed := co.loadLatency(x, e.addr, now)
		e.completeAt = now + lat
		if missed {
			x.missFree = append(x.missFree, e.completeAt)
			if e.completeAt < x.missMin || len(x.missFree) == 1 {
				x.missMin = e.completeAt
			}
		}
	case isa.Store:
		fillAt, missed := co.storeAccess(x, e.addr, now)
		// The store itself completes through the store buffer, but a
		// missing store occupies an MSHR until its fill returns — that
		// backpressure bounds a store stream's memory-bandwidth demand.
		e.completeAt = now + cfg.StoreLatency
		if missed {
			x.missFree = append(x.missFree, fillAt)
			if fillAt < x.missMin || len(x.missFree) == 1 {
				x.missMin = fillAt
			}
		}
	case isa.Branch:
		e.completeAt = now + co.lat[isa.Branch]
		if e.mispredict {
			until := e.completeAt + cfg.MispredictPenalty
			if until > x.fetchStallUntil {
				x.fetchStallUntil = until
			}
		}
	default:
		e.completeAt = now + co.lat[e.kind]
	}
}

// l3Access routes an L3 lookup through the way-partition mask when an
// isolation policy is active; otherwise it is exactly the historical
// unmasked access.
func (c *Chip) l3Access(x *Context, addr uint64) bool {
	if c.iso == nil {
		return c.l3.Access(addr, true)
	}
	return c.l3.AccessMasked(addr, true, c.iso.wayMask[x.gid])
}

// memRequest admits a DRAM request for context x at cycle now, first
// shaping it through the context's token bucket when one is configured.
// The throttle delay is added to x's completion time rather than to the
// controller's admission time: reserving the shared FIFO at the shaped
// (future) arrival would block every other context's requests behind the
// throttled one, inverting the isolation. Relief for the victims comes
// from back-pressure — the throttled context's loads complete later, its
// MSHRs stay full longer, and its DRAM request rate falls.
func (c *Chip) memRequest(x *Context, now uint64) uint64 {
	done := c.memc.Request(now)
	if c.iso != nil {
		done += c.iso.tb[x.gid].Admit(now) - now
	}
	return done
}

// streamHit reports whether line continues a tracked ascending stream of
// context x, training the prefetcher either way.
func (x *Context) streamHit(line, now uint64) bool {
	if x.streams == nil {
		return false
	}
	for i, last := range x.streams {
		if line == last+1 {
			x.streams[i] = line
			x.streamLRU[i] = now
			return true
		}
	}
	// Allocate the least-recently-used stream slot.
	victim, oldest := 0, ^uint64(0)
	for i, st := range x.streamLRU {
		if x.streams[i] == ^uint64(0) {
			victim = i
			break
		}
		if st < oldest {
			victim, oldest = i, st
		}
	}
	x.streams[victim] = line
	x.streamLRU[victim] = now
	return false
}

// loadLatency walks the hierarchy for a load, returning the load-to-use
// latency and whether it missed the L1D (occupying an MSHR).
func (co *Core) loadLatency(x *Context, addr uint64, now uint64) (lat uint64, missedL1 bool) {
	cfg := &co.chip.cfg
	x.ctr.Loads++
	if !x.dtlb.Access(addr) {
		lat += cfg.DTLBMissPenalty
		x.ctr.DTLBLoadMisses++
	}
	if co.l1d.Access(addr, true) {
		x.ctr.L1DHits++
		return lat + co.l1Lat, false
	}
	x.ctr.L1DMisses++
	streamed := x.streamHit(addr>>6, now)
	if co.l2.Access(addr, true) {
		x.ctr.L2Hits++
		return lat + co.l2Lat, true
	}
	x.ctr.L2Misses++
	if co.chip.l3Access(x, addr) {
		x.ctr.L3Hits++
		return lat + cfg.L3.LatencyCycles, true
	}
	x.ctr.L3Misses++
	x.ctr.MemAccesses++
	complete := co.chip.memRequest(x, now)
	if streamed {
		// The stream prefetcher fetched this line ahead of the demand:
		// the DRAM base latency is hidden, but bandwidth queueing (and any
		// throttle delay) is not, and a prefetched DRAM line is never
		// faster than an L3 hit.
		l := co.l2Lat + (complete - now - cfg.MemBaseLatency)
		if l < cfg.L3.LatencyCycles {
			l = cfg.L3.LatencyCycles
		}
		return lat + l, true
	}
	return lat + cfg.L3.LatencyCycles + (complete - now), true
}

// storeAccess performs a store's hierarchy side effects (write-allocate
// fills, DRAM bandwidth consumption), returning when the fill completes and
// whether the L1 missed (occupying an MSHR until fillAt).
func (co *Core) storeAccess(x *Context, addr uint64, now uint64) (fillAt uint64, missedL1 bool) {
	cfg := &co.chip.cfg
	x.ctr.Stores++
	if !x.dtlb.Access(addr) {
		x.ctr.DTLBStoreMisses++
	}
	if co.l1d.Access(addr, true) {
		x.ctr.L1DHits++
		return now, false
	}
	x.ctr.L1DMisses++
	streamed := x.streamHit(addr>>6, now)
	if co.l2.Access(addr, true) {
		x.ctr.L2Hits++
		return now + co.l2Lat, true
	}
	x.ctr.L2Misses++
	if co.chip.l3Access(x, addr) {
		x.ctr.L3Hits++
		return now + cfg.L3.LatencyCycles, true
	}
	x.ctr.L3Misses++
	x.ctr.MemAccesses++
	complete := co.chip.memRequest(x, now)
	if streamed {
		l := co.l2Lat + (complete - now - cfg.MemBaseLatency)
		if l < cfg.L3.LatencyCycles {
			l = cfg.L3.LatencyCycles
		}
		return now + l, true
	}
	return complete, true
}

// fetch allocates up to FetchWidth micro-ops per cycle. Front-end priority
// alternates between the contexts each cycle, but the front end is
// work-conserving: allocation slots the primary context cannot use (stall,
// full ROB, idle) flow to its sibling. This mirrors how a tiny
// loop-buffer-resident Ruler on real hardware leaves fetch bandwidth to its
// co-runner, and is what keeps the functional-unit Rulers decoupled from
// the front-end dimension.
func (co *Core) fetch(now uint64) bool {
	cfg := &co.chip.cfg
	width := cfg.FetchWidth
	nc := len(co.ctxs)
	first := int((now + uint64(co.idx)) % uint64(nc))
	for t := 0; t < nc && width > 0; t++ {
		i := first + t
		if i >= nc {
			i -= nc
		}
		x := co.ctxs[i]
		if x == nil || !x.active || x.fetchStallUntil > now {
			continue
		}
		width -= co.fetchInto(x, now, width)
	}
	return width != cfg.FetchWidth
}

// fetchInto allocates up to width micro-ops into x's ROB, returning the
// number allocated.
func (co *Core) fetchInto(x *Context, now uint64, width int) int {
	cfg := &co.chip.cfg
	u := &x.uop // per-context scratch: a local would escape through Stream.Next
	for n := 0; n < width; n++ {
		if x.tail-x.head >= uint64(cfg.ROBSize) {
			return n
		}
		*u = isa.Uop{}
		x.stream.Next(u)

		if u.ICacheMiss {
			x.ctr.ICacheMisses++
			until := now + cfg.ICacheMissPenalty
			if until > x.fetchStallUntil {
				x.fetchStallUntil = until
			}
		}
		if u.ITLBMiss {
			x.ctr.ITLBMisses++
			until := now + cfg.ITLBMissPenalty
			if until > x.fetchStallUntil {
				x.fetchStallUntil = until
			}
		}

		seq := x.tail
		e := x.entry(seq)
		*e = robEntry{kind: u.Kind, ports: co.portMap[u.Kind], dep1: noDep, dep2: noDep}
		if d := uint64(u.Dep1); d > 0 && d <= seq {
			e.dep1 = seq - d
		}
		if d := uint64(u.Dep2); d > 0 && d <= seq {
			e.dep2 = seq - d
		}
		switch u.Kind {
		case isa.Nop:
			// Nops consume front-end and ROB bandwidth but no port.
			e.issued = true
			e.notReadyUntil = ^uint64(0)
			e.completeAt = now
		case isa.Load, isa.Store:
			e.addr = x.addrBase | u.Addr
		case isa.Branch:
			x.ctr.Branches++
			if !co.pred.Lookup(u.BrTag*2654435761+x.brSalt, u.Taken) {
				e.mispredict = true
				x.ctr.BranchMispredicts++
			}
		}
		if u.Kind != isa.Nop {
			// New dispatchable entry: wake its bitmap slot (the previous
			// occupant retired issued, so the bit is currently clear).
			slot := seq & x.robMask
			x.awake[slot>>6] |= 1 << (slot & 63)
			x.unissued++
		}
		x.tail++

		if x.fetchStallUntil > now {
			return n + 1 // front-end stall takes effect immediately
		}
	}
	return width
}
