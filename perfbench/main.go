// Command perfbench is the repository benchmark: three serial closed-loop
// workloads that split the simulator's cost between sensing
// (field10k), MAC/protocol load (stress-sweep) and naming/transport
// (dense-passive-dir). See README.md for the rationale of each workload
// and the layer-to-end-to-end table.
//
//	go build -o perfbench . && ./perfbench --workload field10k --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics, measured untraced; with --trace 1 they are the
// per-layer metrics of one separate traced run. The line before it is the
// host manifest.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few motes and scenarios, for the
	// package's own test.
	tiny bool
	// spanDir receives the traced run's spans as JSON lines.
	spanDir string
	// rejectOutputs makes every output check fail; the package's test uses
	// it to prove that a failed check counts as a failed op.
	rejectOutputs bool
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// firstErr is the first failed op's error, reported on stderr.
	firstErr error
	// hostNote describes the host's speed during the run, reported on
	// stderr.
	hostNote string
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its untraced (end-to-end) and
// traced (per-layer) runs.
var workloads = map[string]struct {
	measure func(config) (result, error)
	traced  func(config) (result, error)
}{
	"field10k":          {measure: measureField, traced: traceField},
	"dense-passive-dir": {measure: measureField, traced: traceField},
	"stress-sweep":      {measure: measureSweep, traced: traceSweep},
}

func main() {
	// Every workload is one goroutine on the serial engine. One P keeps
	// the garbage collector on the measured CPU too, so its cost shows in
	// the timings instead of on an idle second core, and figures do not
	// depend on how many cores the host has or how busy its neighbours
	// keep them.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: field10k, stress-sweep or dense-passive-dir")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "wall seconds of the timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.spanDir, "span-dir", ".bench_build/spans", "directory receiving the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload field10k|stress-sweep|dense-passive-dir, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	cfg.trace = traceFlag == 1

	man := hostManifest(cfg)
	start := time.Now()
	var res result
	var err error
	if cfg.trace {
		res, err = w.traced(cfg)
	} else {
		res, err = w.measure(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d/%d ops failed, %.1fs\n",
		cfg.workload, cfg.seed, res.Failed, res.Attempted, time.Since(start).Seconds())
	if res.hostNote != "" {
		fmt.Fprintf(stderr, "perfbench: %s\n", res.hostNote)
	}
	if res.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: first failure: %v\n", res.firstErr)
	}
	return emit(stdout, stderr, man, res)
}

// emit prints the manifest line and then the result line.
func emit(stdout, stderr io.Writer, man manifest, res result) int {
	m, err := json.Marshal(man)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: manifest: %v\n", err)
		return 1
	}
	r, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "manifest %s\n%s\n", m, r)
	return 0
}

// errForcedCheck is the output check failure the package's test forces.
var errForcedCheck = errors.New("output check forced to fail")
