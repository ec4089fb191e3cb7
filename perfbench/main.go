// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload in a fresh process for a fixed time, checks every
// output it gets, and prints one JSON line: the end-to-end metrics, or with
// -trace 1 the per-layer metrics taken by timing calls into each package
// from outside. See README.md for the workloads, the metrics and the
// reasons behind them.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times each workload sets up; setup_s is the
// median, which keeps a one-off stall in a fresh process out of it.
const setupReps = 5

// workDir holds the run's stores, relative to the working directory (the
// checkout root), so the benchmark writes nowhere else.
const workDir = ".bench_build/work"

// env is one run's configuration and its check tally.
type env struct {
	ctx    context.Context
	seed   int64
	window time.Duration
	trace  bool
	dir    string
	tally  tally
}

// tempDir makes a fresh directory for one store.
func (e *env) tempDir() (string, error) { return os.MkdirTemp(e.dir, "store-") }

// runFunc runs one workload and returns its metrics: end-to-end, or
// per-layer when e.trace is set.
type runFunc func(e *env) (metrics, error)

var workloads = map[string]runFunc{
	"grid-cold": runGridCold,
	"grid-warm": runGridWarm,
	"serve-mix": runServeMix,
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return err
	}

	e := &env{
		ctx:    context.Background(),
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		dir:    dir,
	}
	m, err := fn(e)
	if err != nil {
		return err
	}
	for k := range m {
		if !metricName.MatchString(k) {
			return fmt.Errorf("bad metric name %q", k)
		}
	}
	out, err := json.Marshal(result{
		Correct:   e.tally.failed == 0,
		Attempted: e.tally.attempted,
		Failed:    e.tally.failed,
		Metrics:   m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
