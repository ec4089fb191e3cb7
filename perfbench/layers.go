package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"scaledeep/internal/compiler"
	"scaledeep/internal/dnn"
	"scaledeep/internal/predict"
	"scaledeep/internal/sim"
	"scaledeep/internal/store"
	"scaledeep/internal/sweep"
	"scaledeep/internal/telemetry"
	"scaledeep/internal/tensor"
)

// This file is the traced run's layer probe. It times each package from
// outside, around calls to its exported functions, on the workload's own
// requests; nothing inside the program is instrumented.

// stageTimes accumulates a replay's per-stage host time.
type stageTimes struct {
	build, compile, machine, install, load, run, readout time.Duration
	instructions, cycles                                 int64
	cells                                                int
}

func (s stageTimes) total() time.Duration {
	return s.build + s.compile + s.machine + s.install + s.load + s.run + s.readout
}

// replayCell runs one cell the way sweep.RunGrid's worker does — build,
// compile, take a pooled machine, install, load weights, inputs and golden
// outputs, run, read the output — timing each stage. The inputs come from
// the same fixed PRNG stream, so the cycles and checksum must equal
// RunGrid's.
func replayCell(c cell, pool map[string]*sim.Machine, st *stageTimes) (int64, float32, error) {
	t0 := time.Now()
	net, err := sweep.BuildWorkload(c.Workload)
	if err != nil {
		return 0, 0, err
	}
	chip, prec, err := sweep.ArchFor(c.Arch)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	train := c.Mode == "train"
	comp, err := compiler.Compile(net, chip, compiler.Options{
		Minibatch: c.MB, Iterations: c.Iters, Training: train, LR: 0.0625,
	})
	if err != nil {
		return 0, 0, err
	}
	t2 := time.Now()
	m := pool[c.Arch]
	if m == nil {
		m = sim.NewMachine(chip, prec, true)
		pool[c.Arch] = m
	} else {
		m.Reset()
	}
	m.SetMetrics(telemetry.NewRegistry()) // RunGrid's store path records every cell
	t3 := time.Now()
	if err := comp.Install(m); err != nil {
		return 0, 0, err
	}
	t4 := time.Now()
	e := dnn.NewExecutor(net, 1)
	e.NoBias = true
	if err := comp.LoadWeights(m, e); err != nil {
		return 0, 0, err
	}
	inShape := net.Layers[0].Out
	outElems := net.OutputLayer().Out.Elems()
	rng := tensor.NewRNG(7)
	inputs := make([]*tensor.Tensor, c.MB)
	golden := make([]*tensor.Tensor, c.MB)
	for i := range inputs {
		inputs[i] = tensor.New(inShape.C, inShape.H, inShape.W)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(outElems)
		rng.FillUniform(golden[i], 1)
	}
	if err := comp.LoadInputs(m, inputs); err != nil {
		return 0, 0, err
	}
	if train {
		if err := comp.LoadGolden(m, golden); err != nil {
			return 0, 0, err
		}
	}
	t5 := time.Now()
	stats, err := m.Run()
	if err != nil {
		return 0, 0, err
	}
	t6 := time.Now()
	var checksum float32
	for _, v := range comp.ReadOutput(m, c.MB-1) {
		checksum += v
	}
	t7 := time.Now()

	st.build += t1.Sub(t0)
	st.compile += t2.Sub(t1)
	st.machine += t3.Sub(t2)
	st.install += t4.Sub(t3)
	st.load += t5.Sub(t4)
	st.run += t6.Sub(t5)
	st.readout += t7.Sub(t6)
	st.instructions += int64(comp.TotalInstructions())
	st.cycles += int64(stats.Cycles)
	st.cells++
	return int64(stats.Cycles), checksum, nil
}

// probeLayers measures the compiler, simulator, sweep and store layers on
// reqs, the RunGrid calls the workload makes. It returns the directory of
// a store holding every requested cell, for the server probe.
func probeLayers(e *env, reqs []sweep.Grid, m metrics) (string, error) {
	// Single-worker RunGrid into a fresh store: the time the replay has to
	// account for, and the exact results it must reproduce.
	dir1, err := e.tempDir()
	if err != nil {
		return "", err
	}
	s1, err := store.Open(dir1, store.Options{})
	if err != nil {
		return "", err
	}
	// Replay each call's distinct cells right after the call, with a
	// machine pool per call as RunGrid keeps one.
	var (
		gridTime time.Duration
		results  = make([][]sweep.Result, len(reqs))
		st       stageTimes
		alloc    uint64
	)
	for i, g := range reqs {
		t := time.Now()
		res, err := sweep.RunGrid(e.ctx, g, sweep.Options{Workers: 1, Store: s1})
		gridTime += time.Since(t)
		if err != nil {
			return "", err
		}
		results[i] = res
		exact := map[cell]sweep.Result{}
		for _, r := range res {
			exact[newCell(r.Workload, r.Arch, r.Minibatch, r.Mode, r.Iters)] = r
		}
		cells, err := gridCells(g)
		if err != nil {
			return "", err
		}
		pool := map[string]*sim.Machine{}
		a0 := totalAlloc()
		for _, c := range distinct(cells) {
			cycles, sum, err := replayCell(c, pool, &st)
			if err == nil {
				if want := exact[c]; cycles != want.Cycles || sum != want.Checksum {
					err = fmt.Errorf("replay of %v: cycles %d checksum %g, RunGrid gave %d and %g",
						c, cycles, sum, want.Cycles, want.Checksum)
				}
			}
			e.tally.check(err)
		}
		alloc += totalAlloc() - a0
	}
	n := float64(st.cells)
	perCell := func(d time.Duration) float64 { return ms(d) / n }
	m.set("compiler.compile_ms", "ms", perCell(st.compile))
	m.set("compiler.install_ms", "ms", perCell(st.install))
	m.set("compiler.load_ms", "ms", perCell(st.load))
	m.set("compiler.instructions", "count", float64(st.instructions)/n)
	m.set("sim.machine_ms", "ms", perCell(st.machine))
	m.set("sim.run_ms", "ms", perCell(st.run))
	m.set("sim.readout_ms", "ms", perCell(st.readout))
	m.set("sim.alloc_mb", "MB", float64(alloc)/(1<<20)/n)
	m.set("sim.cycles", "count", float64(st.cycles)/n)
	m.set("sweep.unaccounted_frac", "ratio", 1-st.total().Seconds()/gridTime.Seconds())

	// Rendering, repeated until the mean is over at least 50 renders.
	var (
		renders    int
		renderTime time.Duration
		buf        bytes.Buffer
	)
	for renders < 50 {
		for _, res := range results {
			buf.Reset()
			t := time.Now()
			if err := sweep.WriteCSV(&buf, res); err != nil {
				return "", err
			}
			renderTime += time.Since(t)
			renders++
		}
	}
	m.set("sweep.render_ms", "ms", ms(renderTime)/float64(renders))

	dir2, err := probeStore(e, s1, m)
	if err != nil {
		return "", err
	}
	return dir2, nil
}

// probeStore times the store's exported calls on the blobs in src: Put
// into a fresh store, then repeated Open, a disk-tier Get of every key, a
// memory-tier Get of every key, and Close. It closes src and returns the
// new store's directory.
func probeStore(e *env, src *store.Store, m metrics) (string, error) {
	keys := src.Keys()
	payloads := make([][]byte, len(keys))
	var blobBytes int
	for i, k := range keys {
		p, ok, err := src.Get(k)
		if err != nil || !ok {
			return "", fmt.Errorf("reading back blob %s: ok=%v err=%v", k, ok, err)
		}
		payloads[i] = p
		blobBytes += len(p)
	}
	if err := src.Close(); err != nil {
		return "", err
	}
	dir, err := e.tempDir()
	if err != nil {
		return "", err
	}
	dst, err := store.Open(dir, store.Options{})
	if err != nil {
		return "", err
	}
	t := time.Now()
	for i, k := range keys {
		if err := dst.Put(k, payloads[i]); err != nil {
			return "", err
		}
	}
	putTime := time.Since(t)
	if err := dst.Close(); err != nil {
		return "", err
	}

	const reps = 5
	var openMS, closeMS, diskMS, memUS []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			return "", err
		}
		openMS = append(openMS, ms(time.Since(t)))
		for tier := 0; tier < 2; tier++ {
			t := time.Now()
			for i, k := range keys {
				p, ok, err := s.Get(k)
				if err == nil && (!ok || !bytes.Equal(p, payloads[i])) {
					err = fmt.Errorf("store get %s: ok=%v, %d bytes, want %d", k, ok, len(p), len(payloads[i]))
				}
				if err != nil {
					return "", err
				}
			}
			per := ms(time.Since(t)) / float64(len(keys))
			if tier == 0 {
				diskMS = append(diskMS, per)
			} else {
				memUS = append(memUS, per*1e3)
			}
		}
		t = time.Now()
		if err := s.Close(); err != nil {
			return "", err
		}
		closeMS = append(closeMS, ms(time.Since(t)))
	}
	n := float64(len(keys))
	m.set("store.put_ms", "ms", ms(putTime)/n)
	m.set("store.blob_kb", "KB", float64(blobBytes)/1024/n)
	m.set("store.open_ms", "ms", median(openMS))
	m.set("store.get_disk_ms", "ms", median(diskMS))
	m.set("store.get_mem_us", "us", median(memUS))
	m.set("store.close_ms", "ms", median(closeMS))
	return dir, nil
}

// fitted is a predictor and the host time its set-up took.
type fitted struct {
	model *predict.Model
	fitS  float64 // predict.Harvest plus predict.Fit
}

// fitPredictor harvests the training grid through the exact simulator
// (into st when non-nil) and fits the model, as sdpredict -fit does.
func fitPredictor(e *env, st *store.Store) (fitted, error) {
	t := time.Now()
	samples, err := predict.Harvest(e.ctx, trainGrid(), sweep.Options{Store: st})
	if err != nil {
		return fitted{}, err
	}
	model, err := predict.Fit(samples, predict.FitOptions{})
	if err != nil {
		return fitted{}, err
	}
	return fitted{model: model, fitS: time.Since(t).Seconds()}, nil
}

// heldOutGrids are the predictor's evaluation cells: minibatches the
// training grid lacks. Eval cells are admitted across this whole range and
// train cells up to about minibatch 6, which leaves well over the 100
// admitted cells a p90 with ten samples beyond it needs.
func heldOutGrids() []sweep.Grid {
	evalMBs := []int{3}
	for mb := 5; mb <= 20; mb++ {
		evalMBs = append(evalMBs, mb)
	}
	return []sweep.Grid{
		{Workloads: sweep.Workloads(), Archs: sweep.Archs(), Minibatches: evalMBs, Modes: []string{"eval"}, Iterations: 2},
		{Workloads: sweep.Workloads(), Archs: sweep.Archs(), Minibatches: []int{3, 5, 6, 7}, Modes: []string{"train"}, Iterations: 2},
	}
}

// probePredictor measures the predictor layer: set-up time (fitting one
// when f is nil), per-call cost, the share of held-out cells its gate
// admits, and the p90 relative cycle error of admitted cells against the
// exact simulator.
func probePredictor(e *env, f *fitted, m metrics) error {
	if f == nil {
		got, err := fitPredictor(e, nil)
		if err != nil {
			return err
		}
		f = &got
	}
	m.set("predict.fit_s", "s", f.fitS)

	var (
		cells, calls int
		callTime     time.Duration
		relErr       []float64
	)
	for _, g := range heldOutGrids() {
		exact, err := sweep.RunGrid(e.ctx, g, sweep.Options{})
		if err != nil {
			return err
		}
		for _, r := range exact {
			net, err := sweep.BuildWorkload(r.Workload)
			if err != nil {
				return err
			}
			chip, prec, err := sweep.ArchFor(r.Arch)
			if err != nil {
				return err
			}
			var (
				cp sweep.CellPrediction
				ok bool
			)
			const reps = 20
			t := time.Now()
			for k := 0; k < reps; k++ {
				cp, ok = f.model.PredictCell(net, chip, prec, r.Minibatch, r.Mode, r.Iters)
			}
			callTime += time.Since(t)
			calls += reps
			cells++
			if ok {
				relErr = append(relErr, math.Abs(float64(cp.Cycles-r.Cycles))/float64(r.Cycles))
			}
		}
	}
	p90, err := percentile(relErr, 90)
	if err != nil {
		return fmt.Errorf("predict.rel_err_p90: %w", err)
	}
	m.set("predict.cell_us", "us", ms(callTime)*1e3/float64(calls))
	m.set("predict.admit_frac", "ratio", float64(len(relErr))/float64(cells))
	m.set("predict.rel_err_p90", "ratio", p90)
	return nil
}
