package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/profile"
	"repro/internal/workload"
)

// A pre-cancelled context never starts a simulation.
func TestLabCharacterizePreCancelled(t *testing.T) {
	l := NewLab(tinyLabScale())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	set := l.specSet(workload.SPECCPU2006())[:2]
	if _, err := l.Profiler(IvyBridge).CharacterizeAllContext(ctx, set, profile.SMT); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := l.CacheStats().Misses; n != 0 {
		t.Fatalf("pre-cancelled call simulated %d runs", n)
	}
}

// A characterization cancelled part-way through must fail with the
// context's error, and a retry on the same Lab must succeed with the
// result a fresh Lab computes: the simulation cache keeps no failed run.
func TestLabCharacterizeCancelsAndRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization fan-out in short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	scale := tinyLabScale()
	scale.Options.Parallelism = 2
	scale.Options.Progress = func(done, total int) { once.Do(cancel) }
	l := NewLab(scale)
	set := l.specSet(workload.SPECCPU2006())[:2]

	if _, err := l.Profiler(IvyBridge).CharacterizeAllContext(ctx, set, profile.SMT); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	got, err := l.Profiler(IvyBridge).CharacterizeAllContext(context.Background(), set, profile.SMT)
	if err != nil {
		t.Fatalf("retry after a cancelled characterization: %v", err)
	}
	want, err := NewLab(tinyLabScale()).Profiler(IvyBridge).CharacterizeAllContext(context.Background(), set, profile.SMT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("retried characterization diverged from a fresh Lab's:\n got: %+v\nwant: %+v", got, want)
	}
}
