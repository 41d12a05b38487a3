package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isol"
	"repro/internal/sim/isa"
	"repro/internal/sim/pmu"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// walkFootprints is the reference footprint install: every walked line goes
// through TLB.Access and the Access lookup chain (L1D, then L2 on a miss,
// then the L3 through its CAT mask), jobs taking turns in footprintChunk-line
// chunks. installFootprints must leave exactly the state this walk leaves.
func (c *Chip) walkFootprints(jobs []footprintJob) {
	line := uint64(c.cfg.L3.LineBytes)
	for {
		busy := false
		for j := range jobs {
			jb := &jobs[j]
			for n := 0; n < footprintChunk && jb.pos < jb.size; n++ {
				a := jb.x.addrBase | jb.pos
				jb.x.dtlb.Access(a)
				if !jb.co.l1d.Access(a, true) {
					if !jb.co.l2.Access(a, true) {
						c.l3Access(jb.x, a)
					}
				}
				jb.pos += line
			}
			if jb.pos < jb.size {
				busy = true
			}
		}
		if !busy {
			return
		}
	}
}

// footprintStream declares fixed resident regions and issues only ALU
// work, so a test controls footprint sizes exactly.
type footprintStream struct{ sizes []uint64 }

func (s footprintStream) Next(u *isa.Uop)            { u.Kind = isa.IntAdd }
func (s footprintStream) PrewarmFootprint() []uint64 { return s.sizes }

// placement is one active hardware context and its declared regions (nil:
// a stream that declares nothing).
type placement struct {
	core, ctx int
	sizes     []uint64
}

// footprintCases builds placements for cfg: 1–4 active contexts on one SMT
// core and one context on each of 2–4 spread cores (CMP), with footprints
// that are unequal, not line- or page-aligned, and above twice the L3.
func footprintCases(cfg isa.Config) map[string][]placement {
	l3 := uint64(cfg.L3.SizeBytes)
	r := xrand.New(uint64(cfg.Cores*131 + cfg.ContextsPerCore))
	sizes := func(k int) [][]uint64 {
		out := make([][]uint64, k)
		for i := range out {
			switch i % 4 {
			case 0:
				out[i] = []uint64{l3/3 + 37, 5000} // unaligned, nested
			case 1:
				out[i] = []uint64{2*l3 + l3/2 + 1} // above twice the L3
			case 2:
				out[i] = []uint64{1 + r.Uint64n(l3/2)}
			default:
				out[i] = []uint64{1 + r.Uint64n(3*l3)}
			}
		}
		return out
	}
	cases := map[string][]placement{}
	for k := 1; k <= min(4, cfg.ContextsPerCore); k++ {
		var ps []placement
		for ctx, s := range sizes(k) {
			ps = append(ps, placement{core: 0, ctx: ctx, sizes: s})
		}
		cases[fmt.Sprintf("smt%d", k)] = ps
	}
	for k := 2; k <= min(4, cfg.Cores); k++ { // one context is smt1
		var ps []placement
		for i, s := range sizes(k) {
			ps = append(ps, placement{core: i * (cfg.Cores - 1) / (k - 1), ctx: 0, sizes: s})
		}
		cases[fmt.Sprintf("cmp%d", k)] = ps
	}
	// Every context of the first two cores busy, one declaring nothing.
	var full []placement
	for core := 0; core < min(2, cfg.Cores); core++ {
		for ctx := 0; ctx < cfg.ContextsPerCore; ctx++ {
			full = append(full, placement{core: core, ctx: ctx, sizes: []uint64{1 + r.Uint64n(l3)}})
		}
	}
	full[len(full)-1].sizes = nil
	cases["full"] = full
	return cases
}

// isolationPolicies derives one policy per partitioned level of
// isol.DefaultSettings: context 0 of every core is the victim owning
// VictimWayFrac of the L3 ways, every other context the aggressor, whose
// DRAM budget keeps ThrottleFrac of the bandwidth.
func isolationPolicies(cfg isa.Config) map[string]isol.Policy {
	ways := cfg.L3.Ways
	out := map[string]isol.Policy{"unpartitioned": {}}
	for _, s := range isol.DefaultSettings() {
		if s.VictimWayFrac == 0 {
			continue
		}
		v, a := isol.SplitWays(int(math.Round(s.VictimWayFrac*float64(ways))), ways)
		pol := isol.Policy{
			WayMasks:   make([]uint64, cfg.Contexts()),
			MemBudgets: make([]isol.MemBudget, cfg.Contexts()),
		}
		for g := range pol.WayMasks {
			pol.WayMasks[g] = a
			if g%cfg.ContextsPerCore == 0 {
				pol.WayMasks[g] = v
			} else if s.ThrottleFrac < 1 {
				pol.MemBudgets[g] = isol.MemBudget{Tokens: 4, RefillCycles: uint64(16 / s.ThrottleFrac)}
			}
		}
		out[s.Name] = pol
	}
	return out
}

// diffChips names every structure the footprint install writes (each
// cache's tags, LRU stamps, clock, line count, tallies and victim RNG, and
// each context's DTLB) on which a and b differ.
func diffChips(a, b *Chip) []string {
	var diff []string
	if !reflect.DeepEqual(a.l3, b.l3) {
		diff = append(diff, "L3")
	}
	for i := range a.cores {
		if !reflect.DeepEqual(a.cores[i].l1d, b.cores[i].l1d) {
			diff = append(diff, fmt.Sprintf("core%d.L1D", i))
		}
		if !reflect.DeepEqual(a.cores[i].l2, b.cores[i].l2) {
			diff = append(diff, fmt.Sprintf("core%d.L2", i))
		}
		for k := range a.cores[i].ctxs {
			if !reflect.DeepEqual(a.cores[i].ctxs[k].dtlb, b.cores[i].ctxs[k].dtlb) {
				diff = append(diff, fmt.Sprintf("core%d.ctx%d.DTLB", i, k))
			}
		}
	}
	return diff
}

// TestInstallFootprintsMatchesWalk is the bulk install's differential
// test: on every machine generation, over SMT and CMP placements and every
// isolation level, installFootprints leaves each cache and DTLB exactly as
// the per-line lookup walk does, down to the replacement RNG's position.
func TestInstallFootprintsMatchesWalk(t *testing.T) {
	var l3Evicts uint64
	for _, gen := range isa.MachineGens() {
		base := gen.Make()
		for cname, ps := range footprintCases(base) {
			for pname, pol := range isolationPolicies(base) {
				cfg := base
				cfg.Isolation = pol
				t.Run(gen.Name+"/"+cname+"/"+pname, func(t *testing.T) {
					bulk, walk := MustNew(cfg), MustNew(cfg)
					for _, p := range ps {
						var s Stream = footprintStream{p.sizes}
						if p.sizes == nil {
							s = streamFunc(func(u *isa.Uop) { u.Kind = isa.IntAdd })
						}
						bulk.Assign(p.core, p.ctx, s)
						walk.Assign(p.core, p.ctx, s)
					}
					bulk.installFootprints(bulk.footprintJobs())
					walk.walkFootprints(walk.footprintJobs())
					if d := diffChips(bulk, walk); len(d) > 0 {
						t.Fatalf("bulk install diverged from the walk in %s", strings.Join(d, ", "))
					}
					if bulk.l3.LineCount() == 0 {
						t.Fatal("nothing installed")
					}
					_, _, e := bulk.l3.Stats()
					l3Evicts += e
				})
			}
		}
	}
	// The random-replacement draws must have been exercised at the L3, not
	// only in the private L2s.
	if l3Evicts == 0 {
		t.Error("no case evicted from the L3")
	}
}

// TestPrewarmBulkMatchesWalkEndToEnd: the two installs leave the same
// chip, so the functional uop prewarm and a timed window that follow see
// the same state and produce the same counters.
func TestPrewarmBulkMatchesWalkEndToEnd(t *testing.T) {
	cfg := testConfig()
	v, a := isol.SplitWays(cfg.L3.Ways/4, cfg.L3.Ways)
	cfg.Isolation = isol.Policy{WayMasks: []uint64{v, a, v, a}}
	run := func(install func(c *Chip)) (*Chip, [3]pmu.Counters) {
		chip := MustNew(cfg)
		chip.Assign(0, 0, workload.NewGen(mustSpec(t, "429.mcf"), 3))
		chip.Assign(0, 1, workload.NewGen(mustSpec(t, "470.lbm"), 4))
		chip.Assign(1, 0, workload.NewGen(mustSpec(t, "403.gcc"), 5))
		install(chip)
		chip.Run(20_000)
		return chip, [3]pmu.Counters{chip.Counters(0, 0), chip.Counters(0, 1), chip.Counters(1, 0)}
	}
	bulk, want := run(func(c *Chip) { c.Prewarm(20_000) })
	walk, got := run(func(c *Chip) {
		c.walkFootprints(c.footprintJobs())
		c.prewarmUops(20_000)
	})
	if want != got {
		t.Errorf("counters diverged:\n bulk %+v\n walk %+v", want, got)
	}
	if d := diffChips(bulk, walk); len(d) > 0 {
		t.Errorf("chips diverged after a timed window in %s", strings.Join(d, ", "))
	}
}

// TestPrewarmRejectsWarmChip: the install is exact only on a cold chip, so
// Prewarm refuses one whose caches hold lines, and Reset makes it cold.
func TestPrewarmRejectsWarmChip(t *testing.T) {
	chip := MustNew(testConfig())
	chip.Assign(0, 0, workload.NewGen(mustSpec(t, "429.mcf"), 1))
	chip.Prewarm(1000)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "cold chip") {
				t.Errorf("second Prewarm on a warm chip: recover() = %v, want a cold-chip panic", r)
			}
		}()
		chip.Prewarm(1000)
	}()
	chip.Reset()
	chip.Assign(0, 0, workload.NewGen(mustSpec(t, "429.mcf"), 1))
	chip.Prewarm(1000) // cold again
}

// TestNewRejectsPrivateLineWiderThanL3: the install walks at the L3 line
// stride, so a private cache whose line spans two walked addresses would
// see hits the install does not model; New rejects that geometry.
func TestNewRejectsPrivateLineWiderThanL3(t *testing.T) {
	cfg := testConfig()
	cfg.L1D.LineBytes = 2 * cfg.L3.LineBytes
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "exceeds the L3 line") {
		t.Errorf("New = %v, want a line-size error", err)
	}
}
