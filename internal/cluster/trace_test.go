package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	clworkload "repro/internal/cluster/workload"
)

func TestTraceRoundTrip(t *testing.T) {
	cfg := synthSimConfig(t, 40, 1, 31)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := WriteTrace(&rec, cfg, events); err != nil {
		t.Fatal(err)
	}
	rcfg, revents, err := ReadTrace(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Record → read → re-record must reproduce the trace byte for byte:
	// that is what makes a trace a stable artifact, not just a lossy dump.
	var rerec bytes.Buffer
	if err := WriteTrace(&rerec, rcfg, revents); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Bytes(), rerec.Bytes()) {
		t.Fatal("re-recorded trace differs from original bytes")
	}
}

func TestTraceVersionRejected(t *testing.T) {
	cfg := synthSimConfig(t, 40, 1, 31)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := WriteTrace(&rec, cfg, events); err != nil {
		t.Fatal(err)
	}
	future := strings.Replace(rec.String(), `"version":1`, `"version":99`, 1)
	_, _, err = ReadTrace(strings.NewReader(future))
	if !errors.Is(err, ErrTraceVersion) {
		t.Fatalf("future version read returned %v, want ErrTraceVersion", err)
	}
	var ve *TraceVersionError
	if !errors.As(err, &ve) || ve.Got != 99 || ve.Want != TraceVersion {
		t.Fatalf("version error detail = %+v", ve)
	}
}

func TestTraceCorruptRejected(t *testing.T) {
	cfg := synthSimConfig(t, 40, 1, 31)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := WriteTrace(&rec, cfg, events); err != nil {
		t.Fatal(err)
	}
	good := rec.String()
	lines := strings.SplitAfter(good, "\n")
	// decode reads event line i and edit re-encodes it with mut applied.
	// Lines 1 and 2 both belong to shard 0, so the order checks have a
	// real predecessor.
	decode := func(i int) traceEvent {
		var ev traceEvent
		if err := json.Unmarshal([]byte(lines[i]), &ev); err != nil {
			t.Fatal(err)
		}
		return ev
	}
	edit := func(i int, mut func(*clworkload.Event)) string {
		ev := decode(i)
		mut(&ev.Event)
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]string(nil), lines...)
		out[i] = string(b) + "\n"
		return strings.Join(out, "")
	}
	first := decode(1).Event
	nLat, nBatch := cfg.Workload.Lats, cfg.Workload.Batches
	const up, down, job = clworkload.KindMachineUp, clworkload.KindMachineDown, clworkload.KindJobArrive

	cases := map[string]string{
		"empty":        "",
		"not json":     "hello\n",
		"wrong format": strings.Replace(good, TraceFormat, "not-a-trace", 1),
		"event junk":   lines[0] + "{\n",
		"bad shard":    lines[0] + strings.Replace(lines[1], `"s":0`, `"s":999`, 1),
		"truncated":    strings.Join(lines[:len(lines)/2], ""),
		// Unchecked, these panic the replay or replay silently out of order.
		"batch far out of range": edit(1, func(ev *clworkload.Event) { ev.Kind, ev.Batch = job, 99999 }),
		"batch one past the end": edit(1, func(ev *clworkload.Event) { ev.Kind, ev.Batch = job, nBatch }),
		"negative batch":         edit(1, func(ev *clworkload.Event) { ev.Kind, ev.Batch = job, -1 }),
		"negative duration":      edit(1, func(ev *clworkload.Event) { ev.Kind, ev.Duration = job, -1 }),
		"lat one past the end":   edit(1, func(ev *clworkload.Event) { ev.Kind, ev.Lat = up, nLat }),
		"negative lat":           edit(1, func(ev *clworkload.Event) { ev.Kind, ev.Lat = up, -3 }),
		"rank at one":            edit(1, func(ev *clworkload.Event) { ev.Kind, ev.Rank = down, 1 }),
		"negative rank":          edit(1, func(ev *clworkload.Event) { ev.Kind, ev.Rank = down, -0.5 }),
		"unknown kind":           edit(1, func(ev *clworkload.Event) { ev.Kind = 9 }),
		"zero kind":              edit(1, func(ev *clworkload.Event) { ev.Kind = 0 }),
		"negative time":          edit(1, func(ev *clworkload.Event) { ev.At = -1 }),
		"time goes backwards":    edit(2, func(ev *clworkload.Event) { ev.At = first.At / 2 }),
		"seq repeats":            edit(2, func(ev *clworkload.Event) { ev.Seq = first.Seq }),
		// Unchecked, the shard slice allocation exhausts memory.
		"absurd shard count": shardBombTrace(t, lines[0]),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := ReadTrace(strings.NewReader(in))
			if !errors.Is(err, ErrTraceCorrupt) {
				t.Fatalf("ReadTrace = %v, want ErrTraceCorrupt", err)
			}
		})
	}
}

// shardBombTrace rewrites a trace header to claim 1e11 shards and no
// events.
func shardBombTrace(t testing.TB, header string) string {
	t.Helper()
	var hdr traceHeader
	if err := json.Unmarshal([]byte(header), &hdr); err != nil {
		t.Fatal(err)
	}
	hdr.Config.Shards, hdr.Events = 100_000_000_000, 0
	b, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestTraceDegenerateRoundTrip pins the header-only edge: a trace of a
// zero-event world (no machines, no arrivals) must record, read back, and
// re-record byte-identically, and replay to an empty placement log.
func TestTraceDegenerateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		machines int
		slo      bool
	}{
		{"empty world", 0, false},
		{"quiet fleet", 30, false},
		{"quiet fleet with SLO gate", 30, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := synthSimConfig(t, tc.machines, 1, 53)
			cfg.Workload.ArrivalRate = 0
			cfg.Workload.Churn = 0
			if tc.slo {
				cfg.Policy = PolicySLO
				cfg.SLO = sloSimParams()
			}
			events, err := GenerateEvents(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var rec bytes.Buffer
			if err := WriteTrace(&rec, cfg, events); err != nil {
				t.Fatal(err)
			}
			rcfg, revents, err := ReadTrace(bytes.NewReader(rec.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var rerec bytes.Buffer
			if err := WriteTrace(&rerec, rcfg, revents); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Bytes(), rerec.Bytes()) {
				t.Fatal("re-recorded degenerate trace differs from original bytes")
			}
			res, err := RunSim(context.Background(), rcfg, revents, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Log) != 0 || res.Events != 0 {
				t.Fatalf("degenerate trace replayed to %d log entries, %d events; want none",
					len(res.Log), res.Events)
			}
		})
	}
}

// FuzzReadTrace holds the trace decoder to its contract on arbitrary
// bytes: it either rejects the input with a typed error (ErrTraceCorrupt
// or ErrTraceVersion) or returns a config and event streams that
// re-encode through WriteTrace and decode back to the same trace. It never panics and
// never allocates by a header's say-so.
func FuzzReadTrace(f *testing.F) {
	// The golden run cut to a few hundred events: the fuzzer minimizes
	// every input that finds new coverage, which a 600 KB seed stalls.
	cfg := goldenConfig(f)
	cfg.Workload.Horizon = 0.05
	events, err := GenerateEvents(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var rec bytes.Buffer
	if err := WriteTrace(&rec, cfg, events); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	header, _, _ := strings.Cut(rec.String(), "\n")
	f.Add([]byte(shardBombTrace(f, header)))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, shards, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTraceCorrupt) && !errors.Is(err, ErrTraceVersion) {
				t.Fatalf("ReadTrace error is untyped: %v", err)
			}
			return
		}
		// Compare encodings: JSON does not tell an empty optional slice
		// (a trace's "pred_deg":[]) from an absent one.
		var once, twice bytes.Buffer
		if err := WriteTrace(&once, cfg, shards); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		cfg2, shards2, err := ReadTrace(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if err := WriteTrace(&twice, cfg2, shards2); err != nil {
			t.Fatalf("decoded re-encoding does not encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("re-encoded trace decodes to a different run")
		}
	})
}
