package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/smite"
)

var update = flag.Bool("update", false, "rewrite the partition-sweep golden fixture")

// TestIsolSweepGolden pins the full `smite isol` partition sweep bit for
// bit: the default way ladder plus an aggressor throttle on one Ivy
// Bridge core at reduced windows. The fixture is the calibration evidence
// behind isol.DefaultSettings — regenerating it (go test -run
// TestIsolSweepGolden -update ./cmd/smite) is a reviewable event, not
// noise. The sweep's shape is asserted independently of the exact bytes:
// once partitioned, growing the victim's exclusive way share never
// increases its degradation.
func TestIsolSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-backed partition sweep in short mode")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "sweep.json")
	var buf bytes.Buffer
	err := isolCmd(context.Background(), []string{
		"-victim", "web-search", "-aggressor", "470.lbm",
		"-fast", "-throttle", "64", "-json", out,
	}, &buf)
	if err != nil {
		t.Fatalf("isol: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden_isol_sweep.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("partition sweep diverged from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}

	var res isolSweepResult
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 || res.Points[0].VictimWays != 0 {
		t.Fatalf("sweep shape %+v", res.Points)
	}
	const eps = 0.02
	for i := 2; i < len(res.Points); i++ {
		prev, cur := res.Points[i-1], res.Points[i]
		if cur.VictimDeg > prev.VictimDeg+eps {
			t.Errorf("victim degradation rose %g -> %g as its partition grew %d -> %d ways",
				prev.VictimDeg, cur.VictimDeg, prev.VictimWays, cur.VictimWays)
		}
	}
}

// TestIsolSweepChecked reruns the golden sweep with the runtime invariant
// checker attached to every simulation, so each partitioned point is also
// checked for fills outside a context's way mask. Checking observes and
// never perturbs, so the sweep must still equal the golden bytes.
func TestIsolSweepChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-backed partition sweep in short mode")
	}
	m, opts, err := machineOptions("ivb", true)
	if err != nil {
		t.Fatal(err)
	}
	opts.Check = true
	vspec, err := smite.WorkloadByName("web-search")
	if err != nil {
		t.Fatal(err)
	}
	aspec, err := smite.WorkloadByName("470.lbm")
	if err != nil {
		t.Fatal(err)
	}
	res, err := isolSweep(context.Background(), io.Discard, m.Config(), vspec, aspec, "", 64, opts)
	if err != nil {
		t.Fatalf("checked sweep: %v", err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_isol_sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Errorf("checked sweep diverged from the golden:\n%s", got)
	}
}

func TestIsolFlagValidation(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	cases := []struct {
		name string
		args []string
	}{
		{"missing victim", []string{"-aggressor", "429.mcf", "-fast"}},
		{"missing aggressor", []string{"-victim", "444.namd", "-fast"}},
		{"unknown app", []string{"-victim", "999.nope", "-aggressor", "429.mcf", "-fast"}},
		{"unknown machine", []string{"-victim", "444.namd", "-aggressor", "429.mcf", "-machine", "alpha", "-fast"}},
		{"garbage ways entry", []string{"-victim", "444.namd", "-aggressor", "429.mcf", "-ways", "2,x", "-fast"}},
		{"ways leave aggressor nothing", []string{"-victim", "444.namd", "-aggressor", "429.mcf", "-ways", "16", "-fast"}},
		{"negative ways", []string{"-victim", "444.namd", "-aggressor", "429.mcf", "-ways", "-1", "-fast"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := isolCmd(ctx, tc.args, &buf); err == nil {
				t.Error("invalid invocation accepted")
			}
		})
	}
}

func TestParseWaysSweep(t *testing.T) {
	got, err := parseWaysSweep("", 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 8, 14}
	if len(got) != len(want) {
		t.Fatalf("default sweep %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("default sweep %v, want %v", got, want)
		}
	}
	// Duplicates collapse, order normalises.
	got, err = parseWaysSweep("8,2,8,0", 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("sweep %v, want [0 2 8]", got)
	}
}
