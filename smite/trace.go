package smite

import (
	"context"
	"io"

	"repro/internal/profile"
	"repro/internal/sim/engine"
	"repro/internal/sim/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Uop is one recorded micro-op (see the trace helpers below).
type Uop = isa.Uop

// CaptureTrace records n micro-ops of an application's dynamic stream.
// Traces are portable: write them with WriteTrace, replay them on any
// machine with TraceJob.
func CaptureTrace(spec *Spec, n int, seed uint64) []Uop {
	return trace.Capture(workload.NewGen(spec, seed), n)
}

// WriteTrace encodes a trace in the compact binary format.
func WriteTrace(w io.Writer, uops []Uop) error {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return err
	}
	for i := range uops {
		if err := tw.Write(&uops[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// ReadTrace decodes a trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Uop, error) { return trace.ReadAll(r) }

// TraceJob wraps a captured trace as a characterizable job: the trace is
// replayed in a loop on each of the job's instances. footprintBytes
// optionally declares resident regions for cache prewarm (pass the
// original workload's working-set sizes). Note that all instances replay
// the same trace in lockstep (they live in disjoint address spaces, so
// they contend without sharing); capture one trace per thread for
// decorrelated instances.
func TraceJob(name string, uops []Uop, instances int, footprintBytes ...uint64) profile.Job {
	return profile.StreamJob(name, instances, func(int, uint64) engine.Stream {
		s := trace.NewStream(uops, true)
		s.DeclareFootprint(footprintBytes...)
		return s
	})
}

// CharacterizeJob characterizes an arbitrary job (for example a TraceJob)
// exactly like a stock workload.
func (s *System) CharacterizeJob(job profile.Job, placement Placement) (Characterization, error) {
	return s.prof.CharacterizeJobContext(context.Background(), job, placement)
}
