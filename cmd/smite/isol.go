package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/isol"
	"repro/internal/profile"
	"repro/smite"
)

// isolSweepResult is the machine-readable form of one partition sweep,
// written by -json. The points are ordered by growing victim way share;
// point 0 (victim_ways 0) is the enforcement-free baseline.
type isolSweepResult struct {
	Machine   string           `json:"machine"`
	Victim    string           `json:"victim"`
	Aggressor string           `json:"aggressor"`
	L3Ways    int              `json:"l3_ways"`
	Throttle  uint64           `json:"throttle_refill_cycles,omitempty"`
	Points    []isolSweepPoint `json:"points"`
}

// isolSweepPoint is one operating point: the victim's exclusive way count
// and both parties' degradations against their solo runs.
type isolSweepPoint struct {
	VictimWays   int     `json:"victim_ways"`
	VictimDeg    float64 `json:"victim_deg"`
	AggressorDeg float64 `json:"aggressor_deg"`
	Throttled    bool    `json:"throttled,omitempty"`
}

// isolCmd is the single-machine hardware QoS-enforcement sweep: co-locate
// the victim with the aggressor on one SMT core and walk the L3
// way-partition ladder (optionally with an aggressor bandwidth throttle),
// reporting how the victim's degradation shrinks — and what the partition
// costs the aggressor — at each point. This is the calibration experiment
// behind the cluster scheduler's isol.DefaultSettings DegScale ladder.
func isolCmd(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("isol", flag.ExitOnError)
	victim := fs.String("victim", "", "latency-sensitive / victim application")
	aggressor := fs.String("aggressor", "", "co-located batch / aggressor application")
	waysFlag := fs.String("ways", "", "comma-separated victim way counts to sweep (default: 0, 2, half, all-but-2)")
	throttle := fs.Uint64("throttle", 0, "also throttle the aggressor to one DRAM request per this many cycles at every partitioned point (0 = no throttle)")
	jsonOut := fs.String("json", "", "write the machine-readable sweep to this file (- for stdout)")
	machine, _, fast, traceOut := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *victim == "" || *aggressor == "" {
		return fmt.Errorf("isol: -victim and -aggressor are required")
	}
	ctx, finishTrace := traceTo(ctx, *traceOut)
	vspec, err := smite.WorkloadByName(*victim)
	if err != nil {
		return err
	}
	aspec, err := smite.WorkloadByName(*aggressor)
	if err != nil {
		return err
	}
	m, opts, err := machineOptions(*machine, *fast)
	if err != nil {
		return err
	}
	res, err := isolSweep(ctx, w, m.Config(), vspec, aspec, *waysFlag, *throttle, opts)
	if err != nil {
		return err
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			_, err = w.Write(data)
		} else {
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	return finishTrace()
}

// isolSweep runs the partition sweep on one core of cfg, printing the table
// to w: the victim on context 0, the aggressor filling the siblings, one
// co-location per victim way count (waysFlag, or the stock ladder), each
// partitioned point also throttling the aggressor when throttle > 0.
func isolSweep(ctx context.Context, w io.Writer, cfg smite.MachineConfig, vspec, aspec *smite.Spec, waysFlag string, throttle uint64, opts smite.Options) (isolSweepResult, error) {
	// One SMT core: the victim on context 0, the aggressor filling the
	// siblings. The partition has exactly two parties, so the sweep
	// isolates the mechanism from placement effects.
	cfg.Cores = 1
	ways := cfg.L3.Ways

	points, err := parseWaysSweep(waysFlag, ways)
	if err != nil {
		return isolSweepResult{}, err
	}

	vJob := profile.AppThreads(vspec, 1)
	aJob := profile.AppThreads(aspec, cfg.ContextsPerCore-1)
	vSolo, err := profile.SoloContext(ctx, cfg, vJob, opts)
	if err != nil {
		return isolSweepResult{}, err
	}
	aSolo, err := profile.SoloContext(ctx, cfg, aJob, opts)
	if err != nil {
		return isolSweepResult{}, err
	}

	res := isolSweepResult{
		Machine: cfg.Name, Victim: vspec.Name, Aggressor: aspec.Name,
		L3Ways: ways, Throttle: throttle,
	}
	fmt.Fprintf(w, "partition sweep on %s (1 core, %d contexts, %d L3 ways): %s vs %s\n",
		cfg.Name, cfg.ContextsPerCore, ways, vspec.Name, aspec.Name)
	fmt.Fprintf(w, "%12s %12s %14s\n", "victim ways", "victim deg", "aggressor deg")
	for _, v := range points {
		pcfg := cfg
		pol := isol.Policy{}
		if v > 0 {
			vMask, aMask := isol.SplitWays(v, ways)
			pol.WayMasks = make([]uint64, cfg.ContextsPerCore)
			pol.WayMasks[0] = vMask
			for g := 1; g < cfg.ContextsPerCore; g++ {
				pol.WayMasks[g] = aMask
			}
			if throttle > 0 {
				pol.MemBudgets = make([]isol.MemBudget, cfg.ContextsPerCore)
				for g := 1; g < cfg.ContextsPerCore; g++ {
					pol.MemBudgets[g] = isol.MemBudget{Tokens: 4, RefillCycles: throttle}
				}
			}
		}
		if err := pol.Validate(pcfg.Contexts(), ways); err != nil {
			return isolSweepResult{}, fmt.Errorf("isol: victim ways %d: %w", v, err)
		}
		pcfg.Isolation = pol
		run, err := profile.ColocateContext(ctx, pcfg, vJob, aJob, profile.SMT, opts)
		if err != nil {
			return isolSweepResult{}, err
		}
		pt := isolSweepPoint{
			VictimWays:   v,
			VictimDeg:    profile.Degradation(vSolo.AppIPC, run.AppIPC),
			AggressorDeg: profile.Degradation(aSolo.AppIPC, run.PartnerIPC),
			Throttled:    v > 0 && throttle > 0,
		}
		res.Points = append(res.Points, pt)
		label := ""
		if pt.Throttled {
			label = "  (throttled)"
		}
		fmt.Fprintf(w, "%12d %11.2f%% %13.2f%%%s\n", pt.VictimWays, pt.VictimDeg*100, pt.AggressorDeg*100, label)
	}
	return res, nil
}

// parseWaysSweep resolves the -ways flag (or the stock ladder) into a
// sorted, deduplicated list of victim way counts. Zero means no partition
// and anchors the sweep; every other count must leave the aggressor at
// least one way.
func parseWaysSweep(spec string, ways int) ([]int, error) {
	var points []int
	if spec == "" {
		points = []int{0, 2, ways / 2, ways - 2}
	} else {
		for _, f := range strings.Split(spec, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("isol: bad -ways entry %q: %v", f, err)
			}
			points = append(points, v)
		}
	}
	seen := map[int]bool{}
	out := points[:0]
	for _, v := range points {
		if v < 0 || v >= ways {
			return nil, fmt.Errorf("isol: victim ways %d outside [0, %d); the aggressor needs at least one way", v, ways)
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}
