// Command sdprof runs a workload on the ScaleDeep simulator with
// per-instruction cycle attribution enabled and prints a ranked per-layer
// bottleneck profile: cycles, share, achieved FLOP/cycle and bytes/cycle
// against the chip's roofline, a compute/memory/interconnect-bound verdict,
// and a stacked stall-breakdown bar — the Fig. 16-style analysis of which
// layers keep the PE arrays busy and which stall on data movement.
//
// Usage:
//
//	sdprof [-net minivgg|simnet] [-train] [-mb N] [-iters N] [-top N] [-json] \
//	       [-serve :6060] [-log-out PATH|-] [-log-level LEVEL]
//
// Below the table, sdprof prints interpolated p50/p95/p99 quantiles of the
// per-op cycle histogram (sim.op.cycles) — a quick read on whether the
// cycle budget is dominated by a few heavyweight ops or spread thin.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"scaledeep/internal/arch"
	"scaledeep/internal/compiler"
	"scaledeep/internal/dnn"
	"scaledeep/internal/profile"
	"scaledeep/internal/report"
	"scaledeep/internal/sim"
	"scaledeep/internal/telemetry"
	"scaledeep/internal/tensor"
	"scaledeep/internal/zoo"
)

func main() {
	netName := flag.String("net", "minivgg", "workload: minivgg (zoo.MiniVGG) or simnet (sdsim's network)")
	train := flag.Bool("train", false, "profile training (FP+BP+WG) instead of evaluation")
	mb := flag.Int("mb", 2, "minibatch size")
	iters := flag.Int("iters", 1, "training iterations")
	top := flag.Int("top", 0, "limit the table to the N worst layers (0 = all)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of the table")
	serveAddr := flag.String("serve", "", "also serve /metrics, /trace, /profile and /debug/pprof/ on this address and stay up after the run")
	logOut := flag.String("log-out", "", "structured JSON log destination (path, - for stderr, empty = off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	flag.Parse()

	logger, closeLog, err := telemetry.OpenLogger(*logOut, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdprof: %v\n", err)
		os.Exit(1)
	}
	defer closeLog()

	var nw *dnn.Network
	switch *netName {
	case "minivgg":
		nw = zoo.MiniVGG()
	case "simnet":
		b := dnn.NewBuilder("simnet")
		in := b.Input(3, 12, 12)
		c1 := b.Conv(in, "c1", 6, 3, 1, 1, tensor.ActReLU)
		p1 := b.MaxPool(c1, "s1", 2, 2)
		c2 := b.Conv(p1, "c2", 8, 3, 1, 1, tensor.ActTanh)
		b.FC(c2, "f1", 10, tensor.ActNone)
		nw = b.Build()
	default:
		fmt.Fprintf(os.Stderr, "sdprof: unknown -net %q (want minivgg or simnet)\n", *netName)
		os.Exit(2)
	}

	chip := arch.Baseline().Cluster.Conv
	chip.Rows, chip.Cols = 3, 10

	var spanTrace *telemetry.Trace
	metrics := telemetry.NewRegistry()
	if *serveAddr != "" {
		spanTrace = telemetry.NewTrace(0)
	}

	opts := compiler.Options{Minibatch: *mb, Iterations: *iters, Training: *train, LR: 0.0625}
	if spanTrace != nil {
		opts.Spans = spanTrace
	}
	c, err := compiler.Compile(nw, chip, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	m := sim.NewMachine(chip, arch.Single, true)
	m.EnableInstrProfile()
	if spanTrace != nil {
		m.SetSpanSink(spanTrace)
	}
	m.SetMetrics(metrics)
	profVar := telemetry.NewJSONVar(`{"state":"running"}`)
	var bs *telemetry.BackgroundServer
	if *serveAddr != "" {
		var err error
		bs, err = telemetry.ServeBackground(*serveAddr, telemetry.NewHTTPMux(metrics, spanTrace, profVar.Get))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("observability endpoints on http://%s (/metrics /trace /profile /debug/pprof/)\n", bs.Addr())
	}

	if err := c.Install(m); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	e := dnn.NewExecutor(nw, 1)
	e.NoBias = true
	if err := c.LoadWeights(m, e); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	inShape := nw.Layers[0].Out
	outDim := nw.Layers[len(nw.Layers)-1].Out.Elems()
	rng := tensor.NewRNG(7)
	inputs := make([]*tensor.Tensor, *mb)
	golden := make([]*tensor.Tensor, *mb)
	for i := range inputs {
		inputs[i] = tensor.New(inShape.C, inShape.H, inShape.W)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(outDim)
		rng.FillUniform(golden[i], 1)
	}
	if err := c.LoadInputs(m, inputs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *train {
		if err := c.LoadGolden(m, golden); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if logger != nil {
		logger.Info("profile.started", "net", *netName, "mb", *mb, "train", *train, "iters", *iters)
	}
	runStart := time.Now()
	st, err := m.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep, err := profile.Collect(c, m, st)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if logger != nil {
		logger.Info("profile.done", "net", *netName, "cycles", st.Cycles,
			"duration_ms", time.Since(runStart).Milliseconds())
	}
	if *jsonOut {
		data, err := report.ProfileJSON(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		fmt.Println()
	} else {
		fmt.Print(rep.Text(*top))
		for _, h := range metrics.Snapshot().Histograms {
			if h.Name == "sim.op.cycles" && len(h.Labels) == 0 && h.Count > 0 {
				fmt.Printf("op cycle quantiles: p50=%.0f p95=%.0f p99=%.0f (%d ops)\n",
					h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Count)
			}
		}
	}
	if bs != nil {
		if data, err := report.ProfileJSON(rep); err == nil {
			profVar.Set(data)
		}
		fmt.Println("run complete; observability endpoints stay up — Ctrl-C to drain and exit")
		if err := bs.ShutdownOnSignal(context.Background(), 5*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
