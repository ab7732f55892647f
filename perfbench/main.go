// Command perfbench is the cogg layer-ledger benchmark. It starts the
// cogd daemon in-process (server.New on a loopback listener; two
// replicas behind a cluster front for fleet-hot), drives one workload
// over two closed-loop client connections, checks every distinct
// program's returned deck by running it on the S/370 simulator against
// a Go twin's expected output, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, from a traced run that replays the workload's
// inputs through the public layer functions and reads the daemon's own
// /v1/traces, /varz and /metrics.
//
// Run it from the repository root through perfbench/run.sh, which
// builds this module:
//
//	bash perfbench/run.sh --workload batch-pascal --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for the daemons' disk caches

	// Sizes; main uses the defaults, the smoke test shrinks them.
	bpPrograms int           // batch-pascal distinct programs
	fhPrograms int           // fleet-hot hot-set size
	setupTime  time.Duration // how long a run repeats its set-up
}

func defaultConfig() config {
	return config{bpPrograms: 256, fhPrograms: 48, setupTime: 3 * time.Second}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run produced: the figures, in print order, plus
// the unit ledger.
type report struct {
	names     []string
	metrics   map[string]metric
	notes     []string
	attempted int
	failed    int
	problems  []string // wrong outputs and broken invariants
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problem records a wrong output or a broken invariant; any problem
// makes the run incorrect.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "(further problems not shown)")
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

var workloads = map[string]func(config) (*report, error){
	"batch-pascal": runBatchPascal,
	"fleet-hot":    runFleetHot,
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "batch-pascal or fleet-hot")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least one slice (1)")
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("work-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg.work = work
	rep, err := run(cfg)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	printReport(cfg, rep)
	if !rep.correct() {
		os.Exit(1)
	}
}

func printReport(cfg config, rep *report) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g: %s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, n := range rep.names {
		m := rep.metrics[n]
		fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, rep.metrics}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
