// Command perfbench is the repository's wall-clock benchmark. It runs one
// named workload against the live runtime (or, for model-sweep, the
// virtual-time model), checks every output, and prints each metric by name
// with its unit; the last line of standard output is one JSON object with
// the result. See README.md in this directory for the workloads, the
// metrics and how to run them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	baseline string
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.writeJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name (pair-fabric | pair-tcp | match-deep | pair-fabric-observed | model-sweep)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the benchmark derives its inputs from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run's per-layer metrics")
	fs.StringVar(&cfg.baseline, "baseline", "BENCH_4.json", "committed trajectory model-sweep must reproduce")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	if _, err := findWorkload(cfg.workload); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// run executes one benchmark invocation, printing the human-readable lines
// to out, and returns the report whose JSON ends the output.
func run(cfg config, out io.Writer) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	rep := newReport(out)
	rep.note("workload %s  seed %d  seconds %g  trace %v", w.name, cfg.seed, cfg.seconds, cfg.trace)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if w.model {
		err = runModel(cfg, dur, rep)
	} else {
		err = runReal(w, cfg, dur, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.finish()
	return rep, nil
}

// metric is one named value in the result JSON.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and check outcome. Every metric is also
// printed as a line with its unit and, for ratios, its base.
type report struct {
	out       io.Writer
	metrics   map[string]metric
	attempted int64
	failed    int64
	firstErr  error
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: map[string]metric{}}
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// add records a metric for the JSON result and prints it with an optional
// note (its base, sample count or spread).
func (r *report) add(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "%-44s %16.4f %-6s %s\n", name, v, unit, note)
}

// fail counts failed operations; err describes the first.
func (r *report) fail(n int64, err error) {
	r.failed += n
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *report) failRatio() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// finish prints the check outcome: fail_ratio with its base.
func (r *report) finish() {
	fmt.Fprintf(r.out, "%-44s %16.6f %-6s (%d failed / %d attempted)\n", "fail_ratio", r.failRatio(), "ratio", r.failed, r.attempted)
	if r.firstErr != nil {
		fmt.Fprintf(r.out, "# first failure: %v\n", r.firstErr)
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.firstErr == nil && r.attempted > 0 }

func (r *report) writeJSON(w io.Writer) error {
	if r.attempted < 1 {
		return errors.New("no operation attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
