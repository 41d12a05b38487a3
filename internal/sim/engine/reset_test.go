package engine

import (
	"reflect"
	"testing"

	"repro/internal/rulers"
	"repro/internal/sim/isa"
	"repro/internal/sim/pmu"
	"repro/internal/workload"
)

// chipObservation captures every externally visible piece of chip state a
// measurement reads: per-context counters, hierarchy statistics, memory
// controller statistics and the cycle clock.
type chipObservation struct {
	Cycle    uint64
	Counters [][2]pmu.Counters
	L1Hits   []uint64
	L1Miss   []uint64
	L2Hits   []uint64
	L2Miss   []uint64
	L3Hits   uint64
	L3Miss   uint64
	L3Lines  int
	MemReqs  uint64
}

func observe(c *Chip) chipObservation {
	o := chipObservation{Cycle: c.Cycle()}
	for i := range c.cores {
		var pair [2]pmu.Counters
		for k := 0; k < 2; k++ {
			pair[k] = c.Counters(i, k)
		}
		o.Counters = append(o.Counters, pair)
		h1, m1, _ := c.CoreL1D(i).Stats()
		h2, m2, _ := c.CoreL2(i).Stats()
		o.L1Hits = append(o.L1Hits, h1)
		o.L1Miss = append(o.L1Miss, m1)
		o.L2Hits = append(o.L2Hits, h2)
		o.L2Miss = append(o.L2Miss, m2)
	}
	o.L3Hits, o.L3Miss, _ = c.L3().Stats()
	o.L3Lines = c.L3().LineCount()
	o.MemReqs, _, _ = c.Memory().Stats()
	return o
}

// runMeasurement drives a canonical two-context co-location on the chip:
// assign, prewarm, warm up, reset counters, measure — the same sequence
// profile.simulate performs.
func runMeasurement(t *testing.T, chip *Chip, cfg isa.Config, seed uint64) chipObservation {
	t.Helper()
	spec, err := workload.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	chip.Assign(0, 0, workload.NewGen(spec, seed))
	chip.Assign(0, 1, rulers.For(cfg, rulers.DimL2).NewStream(seed+1))
	chip.Prewarm(30000)
	chip.Run(5000)
	chip.ResetCounters()
	chip.Run(20000)
	return observe(chip)
}

// TestResetBitIdentical is the contract the batched characterization path
// rests on: a chip that has already simulated an arbitrary workload and been
// Reset must behave bit-identically to a freshly constructed chip. Every
// counter, every hierarchy statistic and the cycle clock must match.
func TestResetBitIdentical(t *testing.T) {
	cfg := testConfig()
	fresh := MustNew(cfg)
	want := runMeasurement(t, fresh, cfg, 11)

	reused := MustNew(cfg)
	// Dirty the chip thoroughly first: a different workload, different
	// seeds, a mid-window stop so MSHRs, store buffers and the memory
	// controller backlog are all mid-flight when Reset hits.
	dirty, err := workload.ByName("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	reused.Assign(0, 0, workload.NewGen(dirty, 99))
	reused.Assign(1, 0, rulers.For(cfg, rulers.DimMemBW).NewStream(7))
	reused.Prewarm(40000)
	reused.Run(13333)

	reused.Reset()
	got := runMeasurement(t, reused, cfg, 11)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("reset chip diverged from fresh chip:\n fresh: %+v\nreused: %+v", want, got)
	}
}

// TestResetClearsChecker pins that Reset detaches an attached checker and
// clears its latched error, returning the chip to post-New state.
func TestResetClearsChecker(t *testing.T) {
	cfg := testConfig()
	chip := MustNew(cfg)
	chip.SetChecker(failingChecker{}, 64)
	chip.Assign(0, 0, rulers.FPAdd().NewStream(1))
	chip.Run(256)
	if chip.CheckErr() == nil {
		t.Fatal("failing checker did not latch an error")
	}
	chip.Reset()
	if chip.CheckErr() != nil {
		t.Errorf("Reset left a latched checker error: %v", chip.CheckErr())
	}
	if chip.checker != nil || chip.sampler != nil {
		t.Error("Reset left a checker or sampler attached")
	}
	chip.Assign(0, 0, rulers.FPAdd().NewStream(1))
	chip.Run(256)
	if chip.CheckErr() != nil {
		t.Errorf("detached checker still latched an error after Reset: %v", chip.CheckErr())
	}
}

type failingChecker struct{}

func (failingChecker) OnCycle(c *Chip) error     { return errAlwaysFails }
func (failingChecker) OnWindowEnd(c *Chip) error { return errAlwaysFails }
func (failingChecker) OnReset(c *Chip)           {}

var errAlwaysFails = &checkerError{}

type checkerError struct{}

func (*checkerError) Error() string { return "always fails" }
