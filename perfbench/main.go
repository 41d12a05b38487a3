// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed, checks the program's outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	go run . --workload paper-test --seed 1 --seconds 35 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) hands an in-memory tracer down through ctx, reports the
// per-layer metrics, prints the per-layer table, and writes the metrics
// and the Chrome trace under --out. README.md lists the workloads and
// defines every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs/trace"
)

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// unit runs one unit of the workload's work under ctx, which carries a
	// tracer in traced units.
	unit(ctx context.Context) (unitResult, error)
	// layers derives the workload's per-layer metrics from its traced and
	// untraced units.
	layers(traced []tracedUnit, untraced []unitResult) map[string]float64
	// close releases the workload's resources and waits for anything it
	// started.
	close()
}

// workloadSpec names a workload and says how to set it up.
type workloadSpec struct {
	name string
	// setups is how many set-up samples are taken before each unit; the
	// last one is the workload the unit runs on. setup_s is the median of
	// the run's samples, which are spread over the run like its units, so
	// a drift in host speed moves setup_s no more than the unit metrics.
	setups int
	// reps is how many back-to-back set-ups one sample times; the sample
	// is their mean, so a set-up of about a microsecond is timed over
	// about 10 ms, well above timer and scheduler noise.
	reps int
	// serialSetup times set-up samples at GOMAXPROCS 1. A serial,
	// allocation-heavy set-up ran 1.5 to 2 times slower for the whole of
	// some processes on a 2-vCPU VM. Timed both ways in the same 8
	// processes, 4 showed that mode at full GOMAXPROCS and none at
	// GOMAXPROCS 1; over later runs it remained in about a third.
	serialSetup bool
	setup       func(seed uint64, tiny bool) (workload, map[string]float64, error)
}

var workloads = []workloadSpec{
	{
		name:        "paper-test",
		setups:      5,
		reps:        10000,
		serialSetup: true,
		setup:       setupPaper,
	},
	{
		name:   "fleet-drift",
		setups: 1,
		reps:   1,
		setup:  setupFleet,
	},
	{
		name:   "qosd-mixed",
		setups: 1,
		reps:   1,
		setup:  setupQosd,
	},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// unitResult is one measured unit of a workload's work.
type unitResult struct {
	wall, cpu time.Duration
	// work counts the work items the unit completed: figure steps,
	// simulated events or admits.
	work float64
	// requests are the latencies, in seconds, of the requests a caller
	// waits on: pipelines, fleet runs or admits. The harness reduces
	// them to the unit's nreq, p50 and p99 and drops them, so a run's
	// memory does not grow with its length.
	requests          []float64
	nreq              int
	p50, p99          float64
	attempted, failed int
	// digest identifies the unit's output; every unit of one run must
	// produce the same one.
	digest string
	// counters are per-unit counts the workload's layers read.
	counters map[string]float64
}

// spanUnits is how many traced units keep their spans for the per-layer
// analysis; later traced units only add to the overhead measurement, so
// a traced run's memory does not grow with its length.
const spanUnits = 5

// tracedUnit is a unit measured with a tracer on its context.
type tracedUnit struct {
	unitResult
	tracer *trace.Tracer
	spans  spanSet
}

// stopwatch measures host wall time and process CPU time (user + sys).
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: processCPU()} }

func (s stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(s.wall), processCPU() - s.cpu
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	tiny     bool
}

// result is the outcome of one run.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	digest            string
	units             int
	requests          int
	traced            []tracedUnit
}

// run sets the workload up, measures it for opts.seconds and derives the
// run's metrics.
func run(ctx context.Context, opts options) (result, error) {
	spec, ok := lookupWorkload(opts.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", opts.workload)
	}
	var (
		w           workload
		setupTimes  []float64
		setupLayers = map[string][]float64{}
	)
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	// setUp replaces the workload with freshly set-up ones, spec.setups
	// times, and records each sample when timed.
	setUp := func(timed bool) error {
		for i := 0; i < spec.setups; i++ {
			if w != nil {
				w.close()
				w = nil // let the collector reclaim it before the next set-up
			}
			procs := runtime.GOMAXPROCS(0)
			if spec.serialSetup {
				runtime.GOMAXPROCS(1)
			}
			runtime.GC()
			var layers map[string]float64
			t0 := time.Now()
			for r := 0; r < spec.reps; r++ {
				if w != nil {
					w.close()
				}
				nw, l, err := spec.setup(opts.seed, opts.tiny)
				if err != nil {
					runtime.GOMAXPROCS(procs)
					return fmt.Errorf("%s set-up: %w", spec.name, err)
				}
				w, layers = nw, l
			}
			elapsed := time.Since(t0)
			runtime.GOMAXPROCS(procs)
			if !timed {
				continue
			}
			setupTimes = append(setupTimes, elapsed.Seconds()/float64(spec.reps))
			for k, v := range layers {
				setupLayers[k] = append(setupLayers[k], v)
			}
		}
		return nil
	}

	// Each unit runs on a fresh set-up of the workload. The set-up before
	// the first unit is not timed: in a fresh process the heap has not yet
	// grown to the workload's size, and the first paper-test samples read
	// up to three times the later ones. One more timed set-up follows the
	// last unit, so every run has samples. Units run until the next one,
	// with its set-up, would overrun the budget; an untraced run needs one
	// unit, a traced run one traced and one untraced unit (their ratio is
	// the tracing overhead).
	var (
		untraced []unitResult
		traced   []tracedUnit
		budget   = time.Duration(opts.seconds * float64(time.Second))
		start    = time.Now()
		last     time.Duration
	)
	for {
		enough := len(untraced) > 0 && (!opts.trace || len(traced) > 0)
		if enough && time.Since(start)+last > budget {
			break
		}
		if err := ctx.Err(); err != nil {
			return result{}, err
		}
		unitStart := time.Now()
		if err := setUp(len(untraced)+len(traced) > 0); err != nil {
			return result{}, err
		}
		runtime.GC()
		var tr *trace.Tracer
		uctx := ctx
		if opts.trace && len(traced) < len(untraced) {
			tr = trace.New()
			uctx = trace.NewContext(ctx, tr)
		}
		u, err := w.unit(uctx)
		if err != nil {
			return result{}, fmt.Errorf("%s unit: %w", spec.name, err)
		}
		u.nreq, u.p50, u.p99 = len(u.requests), percentile(u.requests, 0.50), percentile(u.requests, 0.99)
		u.requests = nil
		if tr != nil {
			t := tracedUnit{unitResult: u}
			if len(traced) < spanUnits {
				t.tracer, t.spans = tr, newSpanSet(tr)
			}
			traced = append(traced, t)
		} else {
			untraced = append(untraced, u)
		}
		last = time.Since(unitStart)
	}

	if err := setUp(true); err != nil {
		return result{}, err
	}

	all := append([]unitResult(nil), untraced...)
	for _, t := range traced {
		all = append(all, t.unitResult)
	}
	res := result{digest: all[0].digest, units: len(all), traced: traced}
	var walls, cpus, tput, p50s, p99s []float64
	for _, u := range all {
		res.attempted += u.attempted
		res.failed += u.failed
		if u.digest != res.digest {
			// Same seed, same inputs: a different output is a failure.
			res.attempted++
			res.failed++
		}
	}
	for _, u := range untraced {
		walls = append(walls, u.wall.Seconds())
		cpus = append(cpus, u.cpu.Seconds())
		tput = append(tput, u.work/u.wall.Seconds())
		p50s = append(p50s, u.p50)
		p99s = append(p99s, u.p99)
		res.requests += u.nreq
	}
	res.correct = res.failed == 0

	if !opts.trace {
		res.metrics = map[string]float64{
			"setup_s":          median(setupTimes),
			"wall_s":           median(walls),
			"cpu_s":            median(cpus),
			"throughput_per_s": median(tput),
			"latency_p50_us":   median(p50s) * 1e6,
			"latency_p99_us":   median(p99s) * 1e6,
			"peak_rss_mb":      peakRSSMB(),
		}
		return res, nil
	}
	res.metrics = w.layers(traced, untraced)
	for k, v := range setupLayers {
		res.metrics[k] = median(v)
	}
	var twalls []float64
	for _, t := range traced {
		twalls = append(twalls, t.wall.Seconds())
	}
	res.metrics["trace.overhead_frac"] = median(twalls)/median(walls) - 1
	return res, nil
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var traceFlag int
	fs.StringVar(&opts.workload, "workload", "", "workload to run: paper-test, fleet-drift or qosd-mixed")
	fs.Uint64Var(&opts.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.Float64Var(&opts.seconds, "seconds", 10, "measurement budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opts.out, "out", ".bench_out", "directory for traced-run artifacts")
	fs.BoolVar(&opts.tiny, "tiny", false, "shrink the workload to smoke-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	opts.trace = traceFlag == 1
	if opts.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}

	h := hostBlock()
	hj, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host: %s\n", hj)
	fmt.Fprintf(stdout, "workload: %s seed %d seconds %g trace %v\n", opts.workload, opts.seed, opts.seconds, opts.trace)

	res, err := run(context.Background(), opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	catalog := endToEnd
	if opts.trace {
		catalog = perLayer
	}
	fmt.Fprintf(stdout, "output_digest: %s\n", res.digest)
	fmt.Fprintf(stdout, "units: %d  requests: %d  attempted: %d  failed: %d  fail_frac: %g\n",
		res.units, res.requests, res.attempted, res.failed, float64(res.failed)/float64(res.attempted))
	if opts.trace {
		printLayerTable(stdout, res.metrics)
		if err := writeArtifacts(opts, h, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		for _, m := range catalog {
			fmt.Fprintf(stdout, "%-18s %16s %s\n", m.name, formatValue(res.metrics[m.name]), m.unit)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   emit(catalog, res.metrics),
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// writeArtifacts writes a traced run's per-layer metrics as JSON and the
// first traced unit's Chrome trace under opts.out.
func writeArtifacts(opts options, h host, res result) error {
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return fmt.Errorf("artifacts: %w", err)
	}
	base := filepath.Join(opts.out, fmt.Sprintf("%s-seed%d", opts.workload, opts.seed))
	layers := make([]map[string]any, 0, len(perLayer))
	for _, m := range perLayer {
		layers = append(layers, map[string]any{
			"layer": m.layer, "metric": m.name, "unit": m.unit,
			"value": res.metrics[m.name], "moves": m.moves,
		})
	}
	doc, err := json.MarshalIndent(map[string]any{
		"workload": opts.workload, "seed": opts.seed, "host": h,
		"output_digest": res.digest, "per_layer": layers,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-layers.json", append(doc, '\n'), 0o644); err != nil {
		return fmt.Errorf("artifacts: %w", err)
	}
	f, err := os.Create(base + "-trace.json")
	if err != nil {
		return fmt.Errorf("artifacts: %w", err)
	}
	if err := res.traced[0].tracer.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("artifacts: %w", err)
	}
	return f.Close()
}
