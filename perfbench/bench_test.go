package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/qosd"
)

// benchmarkFile is the subset of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, ours)
	}
	check := func(kind string, file map[string]string, catalog []metric) {
		want := map[string]string{}
		for _, m := range catalog {
			want[m.name] = m.unit
		}
		for name, unit := range file {
			if u, ok := want[name]; !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but not emitted", kind, name)
			} else if u != unit {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q emitted", kind, name, unit, u)
			}
		}
		for name := range want {
			if _, ok := file[name]; !ok {
				t.Errorf("%s metric %s is emitted but not in BENCHMARK.json", kind, name)
			}
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("end-to-end", e2e, endToEnd)
	check("per-layer", layers, perLayer)
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runTiny(t *testing.T, workload, trace string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.01",
		"--trace", trace, "--tiny", "--out", t.TempDir()}
	if code := mainErr(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s --trace %s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("%s: result keys %v", workload, got)
	}
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s --trace %s: correct %v, attempted %d, failed %d", workload, trace, r.Correct, r.Attempted, r.Failed)
	}
	if !strings.Contains(stdout.String(), `"source_sha256":"`) || strings.Contains(stdout.String(), `"source_sha256":"unknown"`) {
		t.Errorf("%s: host block has no source digest", workload)
	}
	for _, prefix := range []string{"host: ", "output_digest: "} {
		if !strings.Contains(stdout.String(), "\n"+prefix) && !strings.HasPrefix(stdout.String(), prefix) {
			t.Errorf("%s: no %q line", workload, prefix)
		}
	}
	return r
}

func TestWorkloadsTiny(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "paper-test" {
				t.Skip("the paper pipeline takes tens of seconds")
			}
			r := runTiny(t, w.name, "0")
			if len(r.Metrics) != len(b.EndToEnd) {
				t.Errorf("untraced run emitted %d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: %+v (present %v)", m.Name, got, ok)
				}
			}
			r = runTiny(t, w.name, "1")
			if len(r.Metrics) != len(b.PerLayer) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: %+v (present %v)", m.Name, got, ok)
				}
			}
		})
	}
}

func TestQosdStreamCoversEveryDecision(t *testing.T) {
	w, _, err := setupQosd(3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	q := w.(*qosdWorkload)
	reasons := map[string]int{}
	remedies, engine := 0, 0
	for _, e := range q.expect {
		reasons[e.reason]++
		if e.remedy > 0 {
			remedies++
		}
		if e.tier == qosd.TierEngine {
			engine++
		}
	}
	for _, r := range []string{qosd.AdmitReasonOK, qosd.AdmitReasonBudgetExceeded, qosd.AdmitReasonSaturated} {
		if reasons[r] == 0 {
			t.Errorf("no %q decision in the stream: %v", r, reasons)
		}
	}
	if remedies == 0 || engine == 0 || engine == len(q.expect) {
		t.Errorf("remedies %d, engine-tier requests %d of %d", remedies, engine, len(q.expect))
	}
}

func TestWrongQosdExpectationIsAFailure(t *testing.T) {
	w, _, err := setupQosd(3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	q := w.(*qosdWorkload)
	u, err := q.unit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if u.failed != 0 {
		t.Fatalf("correct expectations: %d of %d failed", u.failed, u.attempted)
	}
	q.expect[7].admitted = !q.expect[7].admitted
	u, err = q.unit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if u.failed != 1 {
		t.Errorf("one wrong expected decision: %d failures, want 1", u.failed)
	}
}
