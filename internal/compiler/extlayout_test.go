package compiler_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/compiler"
	"scaledeep/internal/dnn"
	"scaledeep/internal/sim"
	"scaledeep/internal/sweep"
	"scaledeep/internal/tensor"
	"scaledeep/internal/zoo"
)

// TestExtLayoutRegionsDisjoint checks the compiler-owned external-memory
// layout over every catalog workload, eval and train, minibatch 1..8, with
// weights on and off chip: the regions are packed in order, pairwise
// disjoint, and together exactly fill the extent.
func TestExtLayoutRegionsDisjoint(t *testing.T) {
	chip, _, err := sweep.ArchFor("baseline")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range sweep.Workloads() {
		for _, train := range []bool{false, true} {
			for _, offChip := range []bool{false, true} {
				for mb := 1; mb <= 8; mb++ {
					name := fmt.Sprintf("%s/train=%v/offchip=%v/mb%d", wl, train, offChip, mb)
					net, err := sweep.BuildWorkload(wl)
					if err != nil {
						t.Fatal(err)
					}
					c, err := compiler.Compile(net, chip, compiler.Options{
						Minibatch: mb, Training: train, WeightsOffChip: offChip, LR: 0.0625,
					})
					if err != nil {
						// Over-capacity layouts are rejected, not aliased.
						if !strings.Contains(err.Error(), "over capacity") {
							t.Errorf("%s: %v", name, err)
						}
						continue
					}
					checkLayout(t, name, c)
				}
			}
		}
	}
}

func checkLayout(t *testing.T, name string, c *compiler.Compiled) {
	t.Helper()
	l := c.Ext
	mb := int64(c.Opts.Minibatch)
	if l.Input.Size != mb*c.InputElems || l.Output.Size != mb*c.OutputElems {
		t.Errorf("%s: input/output regions %+v/%+v for %d×(%d,%d)", name, l.Input, l.Output, mb, c.InputElems, c.OutputElems)
	}
	wantGolden := int64(0)
	if c.Opts.Training {
		wantGolden = mb * c.OutputElems
	}
	if l.Golden.Size != wantGolden {
		t.Errorf("%s: golden region %+v, want size %d", name, l.Golden, wantGolden)
	}
	if (l.Weights.Size > 0) != c.Opts.WeightsOffChip {
		t.Errorf("%s: weight region %+v with WeightsOffChip=%v", name, l.Weights, c.Opts.WeightsOffChip)
	}
	regs := []compiler.ExtRegion{l.Input, l.Golden, l.Output, l.Weights}
	next := int64(0)
	for i, r := range regs {
		if r.Base != next || r.Size < 0 || r.End() > l.Elems {
			t.Errorf("%s: region %d %+v not packed at %d inside extent %d", name, i, r, next, l.Elems)
		}
		next = r.End()
		for _, o := range regs[i+1:] {
			if r.Size > 0 && o.Size > 0 && r.Base < o.End() && o.Base < r.End() {
				t.Errorf("%s: regions %+v and %+v overlap", name, r, o)
			}
		}
	}
	if next != l.Elems {
		t.Errorf("%s: regions end at %d, extent %d", name, next, l.Elems)
	}
}

// TestExtLayoutNoAliasingLargeInput is the regression for the fixed-address
// layout, which put golden outputs 4M elements after the inputs: a 16×128×128
// input at minibatch 17 spans 4.46M elements, so staging the golden outputs
// overwrote the tail of image 16. Every image must now read back unchanged.
func TestExtLayoutNoAliasingLargeInput(t *testing.T) {
	b := dnn.NewBuilder("bigin")
	in := b.Input(16, 128, 128)
	p1 := b.MaxPool(in, "p1", 8, 8)
	b.FC(p1, "f1", 10, tensor.ActNone)
	net := b.Build()
	chip := arch.Baseline().Cluster.Conv
	const mb = 17
	c, err := compiler.Compile(net, chip, compiler.Options{Minibatch: mb, Training: true, LR: 0.0625})
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "bigin", c)
	m := sim.NewMachine(chip, arch.Single, true)
	if err := c.Install(m); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	inputs := make([]*tensor.Tensor, mb)
	golden := make([]*tensor.Tensor, mb)
	for i := range inputs {
		inputs[i] = tensor.New(16, 128, 128)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(10)
		rng.FillUniform(golden[i], 1)
	}
	if err := c.LoadInputs(m, inputs); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadGolden(m, golden); err != nil {
		t.Fatal(err)
	}
	for i, img := range inputs {
		got := m.ReadExt(c.Ext.Input.Base+int64(i)*c.InputElems, c.InputElems)
		if !reflect.DeepEqual(got, img.Data) {
			t.Fatalf("image %d changed after LoadGolden", i)
		}
	}
}

// TestLoadGoldenRejectsEvalCompile: an eval compile reserves no golden
// region, so staging golden outputs must fail instead of landing on the
// output region.
func TestLoadGoldenRejectsEvalCompile(t *testing.T) {
	net, err := sweep.BuildWorkload("simnet")
	if err != nil {
		t.Fatal(err)
	}
	chip, _, _ := sweep.ArchFor("baseline")
	c, err := compiler.Compile(net, chip, compiler.Options{Minibatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(chip, arch.Single, true)
	if err := c.Install(m); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadGolden(m, []*tensor.Tensor{tensor.New(int(c.OutputElems))}); err == nil {
		t.Fatal("LoadGolden accepted an eval-only compile")
	}
}

// TestCompileOverCapacityIsError: minivgg training at minibatch 64 does not
// fit the sweep's 3×8 half-precision chip. Compile must say which tile and
// region overflow instead of panicking.
func TestCompileOverCapacityIsError(t *testing.T) {
	chip, _, _ := sweep.ArchFor("half")
	_, err := compiler.Compile(zoo.MiniVGG(), chip, compiler.Options{Minibatch: 64, Training: true, LR: 0.0625})
	if err == nil {
		t.Fatal("over-capacity compile succeeded")
	}
	for _, want := range []string{"MemHeavy tile (r", "over capacity", "region "} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// cellRun is everything a sweep cell reads back from one simulation.
type cellRun struct {
	stats  sim.Stats
	output []float32
	ext    int64 // external-memory extent
}

// runCell compiles net at mb, installs it on m and runs it functionally
// with fixed-seed weights, inputs and golden outputs.
func runCell(t *testing.T, m *sim.Machine, net *dnn.Network, chip arch.ChipConfig, mb int, train bool) cellRun {
	t.Helper()
	c, err := compiler.Compile(net, chip, compiler.Options{Minibatch: mb, Training: train, LR: 0.0625})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Install(m); err != nil {
		t.Fatal(err)
	}
	e := dnn.NewExecutor(net, 1)
	e.NoBias = true
	if err := c.LoadWeights(m, e); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	inputs := make([]*tensor.Tensor, mb)
	golden := make([]*tensor.Tensor, mb)
	in := net.Layers[0].Out
	for i := range inputs {
		inputs[i] = tensor.New(in.C, in.H, in.W)
		rng.FillUniform(inputs[i], 1)
		golden[i] = tensor.New(int(c.OutputElems))
		rng.FillUniform(golden[i], 1)
	}
	if err := c.LoadInputs(m, inputs); err != nil {
		t.Fatal(err)
	}
	if train {
		if err := c.LoadGolden(m, golden); err != nil {
			t.Fatal(err)
		}
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cellRun{stats: st, output: c.ReadOutput(m, mb-1), ext: c.Ext.Elems}
}

// TestPooledMachineMatchesFresh pins high-water Reset: after a large
// training cell (minivgg, minibatch 7), Reset must leave every scratchpad
// and the old external extent reading zero, and a small cell on the reused
// machine must match a fresh machine exactly — same Stats (MemPeak
// included) and same outputs.
func TestPooledMachineMatchesFresh(t *testing.T) {
	chip, prec, _ := sweep.ArchFor("baseline")
	small := func() *dnn.Network {
		net, err := sweep.BuildWorkload("simnet")
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	pooled := sim.NewMachine(chip, prec, true)
	big := runCell(t, pooled, zoo.MiniVGG(), chip, 7, true)
	pooled.Reset()
	// Read back everything the big cell could have written. Reading touches
	// the whole scratchpad, so Reset again before reuse.
	capElems := int64(chip.MemHeavy.CapacityKB) * 1024 / prec.Bytes()
	buf := make([]float32, capElems)
	for tile := 0; tile < chip.Rows*(chip.Cols+1); tile++ {
		pooled.ReadMemInto(tile, 0, buf)
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("scratchpad %d element %d = %v after Reset", tile, i, v)
			}
		}
	}
	pooled.SetExtMem(big.ext)
	for i, v := range pooled.ReadExt(0, big.ext) {
		if v != 0 {
			t.Fatalf("external element %d = %v after Reset", i, v)
		}
	}
	pooled.Reset()
	got := runCell(t, pooled, small(), chip, 2, true)
	want := runCell(t, sim.NewMachine(chip, prec, true), small(), chip, 2, true)
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("pooled stats differ from fresh:\n got %v\nwant %v", got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.stats.MemPeak, want.stats.MemPeak) {
		t.Errorf("pooled MemPeak %v, fresh %v", got.stats.MemPeak, want.stats.MemPeak)
	}
	if !reflect.DeepEqual(got.output, want.output) {
		t.Errorf("pooled output %v, fresh %v", got.output, want.output)
	}
}
