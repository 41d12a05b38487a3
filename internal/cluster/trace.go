package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	clworkload "repro/internal/cluster/workload"
)

// Trace format: line-oriented JSON. The first line is a header carrying
// the format tag, the version, and the complete SimConfig — including the
// prediction table — so a trace is self-contained: replaying it needs no
// lab, no predictor and no flags, and reproduces the original run's
// placement log bit for bit at any parallelism. Every following line is
// one exogenous event tagged with its shard. Writing is deterministic
// (fixed field order, shortest float encoding), so record → replay →
// re-record round-trips to identical bytes; the trace tests pin that.
//
// Versioning: TraceVersion bumps on any incompatible change to the header
// or event schema. Readers reject unknown versions with ErrTraceVersion
// (wrapped in a *TraceVersionError naming both sides) rather than
// guessing, and anything structurally broken surfaces as ErrTraceCorrupt.

// TraceFormat tags the header line of a cluster trace.
const TraceFormat = "smite-cluster-trace"

// TraceVersion is the current trace schema version.
const TraceVersion = 1

// ErrTraceVersion reports a trace written by an incompatible schema
// version.
var ErrTraceVersion = errors.New("cluster: unsupported trace version")

// ErrTraceCorrupt reports a structurally invalid trace.
var ErrTraceCorrupt = errors.New("cluster: corrupt trace")

// TraceVersionError carries the version mismatch detail; errors.Is
// matches it against ErrTraceVersion.
type TraceVersionError struct {
	Got, Want int
}

func (e *TraceVersionError) Error() string {
	return fmt.Sprintf("cluster: trace version %d, this build reads %d", e.Got, e.Want)
}

// Is matches ErrTraceVersion.
func (e *TraceVersionError) Is(target error) bool { return target == ErrTraceVersion }

type traceHeader struct {
	Format  string    `json:"format"`
	Version int       `json:"version"`
	Config  SimConfig `json:"config"`
	Events  int       `json:"events"`
}

type traceEvent struct {
	Shard int `json:"s"`
	clworkload.Event
}

// WriteTrace records a run's inputs: the normalised config and the
// per-shard exogenous event streams.
func WriteTrace(w io.Writer, cfg SimConfig, shards [][]clworkload.Event) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(shards) != cfg.Shards {
		return fmt.Errorf("cluster: %d event shards for %d sim shards", len(shards), cfg.Shards)
	}
	total := 0
	for _, ev := range shards {
		total += len(ev)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends exactly one '\n' per value
	if err := enc.Encode(traceHeader{Format: TraceFormat, Version: TraceVersion, Config: cfg, Events: total}); err != nil {
		return err
	}
	for s, evs := range shards {
		for _, ev := range evs {
			if err := enc.Encode(traceEvent{Shard: s, Event: ev}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTrace parses a recorded trace back into the config and per-shard
// event streams WriteTrace was given.
func ReadTrace(r io.Reader) (SimConfig, [][]clworkload.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // headers embed the prediction table
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return SimConfig{}, nil, err
		}
		return SimConfig{}, nil, fmt.Errorf("%w: empty file", ErrTraceCorrupt)
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return SimConfig{}, nil, fmt.Errorf("%w: header: %v", ErrTraceCorrupt, err)
	}
	if hdr.Format != TraceFormat {
		return SimConfig{}, nil, fmt.Errorf("%w: format %q", ErrTraceCorrupt, hdr.Format)
	}
	if hdr.Version != TraceVersion {
		return SimConfig{}, nil, &TraceVersionError{Got: hdr.Version, Want: TraceVersion}
	}
	cfg := hdr.Config.withDefaults()
	if err := cfg.Validate(); err != nil {
		return SimConfig{}, nil, fmt.Errorf("%w: config: %v", ErrTraceCorrupt, err)
	}
	shards := make([][]clworkload.Event, cfg.Shards)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev traceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return SimConfig{}, nil, fmt.Errorf("%w: event %d: %v", ErrTraceCorrupt, n, err)
		}
		if ev.Shard < 0 || ev.Shard >= cfg.Shards {
			return SimConfig{}, nil, fmt.Errorf("%w: event %d names shard %d of %d", ErrTraceCorrupt, n, ev.Shard, cfg.Shards)
		}
		var prev *clworkload.Event
		if k := len(shards[ev.Shard]); k > 0 {
			prev = &shards[ev.Shard][k-1]
		}
		if err := checkTraceEvent(ev.Event, prev, cfg.Workload); err != nil {
			return SimConfig{}, nil, fmt.Errorf("%w: event %d: %v", ErrTraceCorrupt, n, err)
		}
		shards[ev.Shard] = append(shards[ev.Shard], ev.Event)
		n++
	}
	if err := sc.Err(); err != nil {
		return SimConfig{}, nil, err
	}
	if n != hdr.Events {
		return SimConfig{}, nil, fmt.Errorf("%w: header promises %d events, file has %d", ErrTraceCorrupt, hdr.Events, n)
	}
	return cfg, shards, nil
}

// checkTraceEvent rejects an event the simulator cannot replay: an
// unknown kind, an application index or rank out of range, a negative or
// non-finite time or duration, or an event out of its shard's order —
// Generate emits each shard time-ordered with strictly increasing Seq.
// prev is the shard's previous event, nil for its first.
func checkTraceEvent(ev clworkload.Event, prev *clworkload.Event, w clworkload.Config) error {
	switch {
	case !(ev.At >= 0) || math.IsInf(ev.At, 1):
		return fmt.Errorf("time %g is not a non-negative finite number", ev.At)
	case prev != nil && ev.At < prev.At:
		return fmt.Errorf("time %g precedes the shard's previous event at %g", ev.At, prev.At)
	case prev != nil && ev.Seq <= prev.Seq:
		return fmt.Errorf("seq %d does not follow the shard's previous seq %d", ev.Seq, prev.Seq)
	}
	switch ev.Kind {
	case clworkload.KindMachineUp:
		if ev.Lat < 0 || ev.Lat >= w.Lats {
			return fmt.Errorf("machine-up latency app %d outside [0,%d)", ev.Lat, w.Lats)
		}
	case clworkload.KindMachineDown:
		if !(ev.Rank >= 0 && ev.Rank < 1) {
			return fmt.Errorf("machine-down rank %g outside [0,1)", ev.Rank)
		}
	case clworkload.KindJobArrive:
		if ev.Batch < 0 || ev.Batch >= w.Batches {
			return fmt.Errorf("job batch app %d outside [0,%d)", ev.Batch, w.Batches)
		}
		if !(ev.Duration >= 0) || math.IsInf(ev.Duration, 1) {
			return fmt.Errorf("job duration %g is not a non-negative finite number", ev.Duration)
		}
	default:
		return fmt.Errorf("unknown kind %d", ev.Kind)
	}
	return nil
}
