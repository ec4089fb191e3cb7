package sim

import (
	"math"
	"strings"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/isa"
	"scaledeep/internal/tensor"
)

// testChip is a tiny 2-row × 2-column chip for unit tests.
func testChip() arch.ChipConfig {
	return arch.ChipConfig{
		Kind: arch.ConvLayerChip,
		Rows: 2, Cols: 2,
		CompHeavy:  arch.CompHeavyConfig{ArrayRows: 2, ArrayCols: 2, Lanes: 2},
		MemHeavy:   arch.MemHeavyConfig{CapacityKB: 64, NumSFU: 4, TrackerSlots: 8, TrackQueueDepth: 4},
		ExtMemGBps: 150, CompMemGBps: 24, MemMemGBps: 36,
	}
}

func newTestMachine() *Machine {
	return NewMachine(testChip(), arch.Single, true)
}

// opInstr emits LDRIs for each value into registers 8.. and the op itself.
func opInstr(op isa.Opcode, vals ...int64) []isa.Instr {
	var out []isa.Instr
	regs := make([]isa.Reg, len(vals))
	for i, v := range vals {
		r := isa.Reg(8 + i)
		if v > math.MaxInt32 || v < math.MinInt32 {
			panic("test value exceeds imm range")
		}
		out = append(out, isa.Ldri(r, int32(v)))
		regs[i] = r
	}
	return append(out, isa.WithArgs(op, regs...))
}

// opInstrAt is opInstr with an explicit register base, so consecutive ops
// in one program can keep their operands in disjoint register ranges.
func opInstrAt(base int, op isa.Opcode, vals ...int64) []isa.Instr {
	var out []isa.Instr
	regs := make([]isa.Reg, len(vals))
	for i, v := range vals {
		r := isa.Reg(base + i)
		out = append(out, isa.Ldri(r, int32(v)))
		regs[i] = r
	}
	return append(out, isa.WithArgs(op, regs...))
}

func prog(tile string, groups ...[]isa.Instr) *isa.Program {
	p := &isa.Program{Tile: tile}
	for _, g := range groups {
		p.Instrs = append(p.Instrs, g...)
	}
	p.Instrs = append(p.Instrs, isa.Halt())
	return p
}

func mustRun(t *testing.T, m *Machine) Stats {
	t.Helper()
	st, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return st
}

func TestScalarLoopAndHalt(t *testing.T) {
	m := newTestMachine()
	// r1 = 5; loop: r1--; bgtz r1 -2; halt — 1 + 5*2 scalar instructions.
	p := prog("t", []isa.Instr{
		isa.Ldri(1, 5),
		isa.Subri(1, 1, 1),
		isa.Bgtz(1, -2),
	})
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, m)
	if st.Instructions != 1+5*2+1 {
		t.Fatalf("instructions = %d", st.Instructions)
	}
	if st.Cycles < 11 {
		t.Fatalf("cycles = %d", st.Cycles)
	}
}

func TestScalarALUOps(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
	p := prog("t", []isa.Instr{
		isa.Ldri(1, 7),
		isa.Ldri(2, 3),
		isa.Addr(3, 1, 2),                         // r3 = 10
		isa.Subri(4, 3, 4),                        // r4 = 6
		{Op: isa.MULRI, Dst: 5, Src1: 4, Imm: 5},  // r5 = 30
		{Op: isa.CMPLT, Dst: 6, Src1: 2, Src2: 1}, // r6 = 1
		isa.Movr(7, 5),                            // r7 = 30
		{Op: isa.ADDRI, Dst: 8, Src1: 7, Imm: 12}, // r8 = 42
		{Op: isa.SUBR, Dst: 9, Src1: 8, Src2: 2},  // r9 = 39
		{Op: isa.NOP},
		// Use r9 as a DMA size so the result is observable: store 39 elems
		// from mem tile 0 addr 0 to ext addr 100.
		isa.Ldri(10, 0), isa.Ldri(11, 0), isa.Ldri(12, 100),
		{Op: isa.LDRI, Dst: 13, Imm: 2}, isa.Ldri(14, 0),
		{Op: isa.DMASTORE, Args: []isa.Reg{10, 11, 12, 13, 9, 14}},
	})
	m.WriteMem(0, 0, []float32{1, 2, 3})
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	got := m.ReadExt(100, 3)
	if got[0] != 1 || got[2] != 3 {
		t.Fatalf("DMA with computed size failed: %v", got)
	}
}

func TestDMAExtToMemAndBack(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
	m.WriteExt(50, []float32{1, 2, 3, 4})
	p := prog("t",
		// DMALOAD src=50 ext → dst=8 left mem, size 4
		opInstr(isa.DMALOAD, 50, isa.PortExt, 8, isa.PortLeft, 4, 0),
		// DMASTORE src=8 left → ext 200, size 4
		opInstr(isa.DMASTORE, 8, isa.PortLeft, 200, isa.PortExt, 4, 0),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, m)
	got := m.ReadExt(200, 4)
	for i, want := range []float32{1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("ext round trip: %v", got)
		}
	}
	if st.ExtMemBytes != 2*4*4 {
		t.Fatalf("ext traffic = %d bytes", st.ExtMemBytes)
	}
}

func TestDMAAccumulate(t *testing.T) {
	m := newTestMachine()
	m.WriteMem(0, 0, []float32{1, 2})
	m.WriteMem(m.MemTileIndex(0, 1), 0, []float32{10, 20})
	p := prog("t",
		// right tile gets left's values accumulated: DMASTORE left→right acc=1
		opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.PortRight, 2, 1),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	got := m.ReadMem(m.MemTileIndex(0, 1), 0, 2)
	if got[0] != 11 || got[1] != 22 {
		t.Fatalf("accumulating DMA: %v", got)
	}
}

func TestNDConvForwardMatchesTensor(t *testing.T) {
	m := newTestMachine()
	rng := tensor.NewRNG(5)
	in := tensor.New(1, 6, 6)
	rng.FillUniform(in, 1)
	k1 := tensor.New(1, 1, 3, 3)
	k2 := tensor.New(1, 1, 3, 3)
	rng.FillUniform(k1, 1)
	rng.FillUniform(k2, 1)
	cp := tensor.ConvParams{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}

	left := m.MemTileIndex(0, 0)
	m.WriteMem(left, 0, in.Data)   // input feature at 0
	m.WriteMem(left, 100, k1.Data) // kernels at 100, 109
	m.WriteMem(left, 109, k2.Data)

	// NDCONV fwd: 2 kernels (nk=2), out at right tile addr 0, acc=0.
	p := prog("t",
		opInstr(isa.NDCONV, isa.ModeFwd, 0, isa.PortLeft, 6, 6,
			100, isa.PortLeft, 3, 1, 1, 0, isa.PortRight, 2, 0),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, m)

	want1 := tensor.Conv2D(in, k1, nil, cp)
	want2 := tensor.Conv2D(in, k2, nil, cp)
	right := m.MemTileIndex(0, 1)
	got1 := m.ReadMem(right, 0, 36)
	got2 := m.ReadMem(right, 36, 36)
	if tensor.MaxAbsDiff(tensor.FromSlice(got1, 36), tensor.FromSlice(want1.Data, 36)) > 1e-6 {
		t.Fatal("kernel 1 output mismatch")
	}
	if tensor.MaxAbsDiff(tensor.FromSlice(got2, 36), tensor.FromSlice(want2.Data, 36)) > 1e-6 {
		t.Fatal("kernel 2 output mismatch")
	}
	if st.FLOPs != 2*2*9*36 {
		t.Fatalf("conv FLOPs = %d", st.FLOPs)
	}
	if st.PEUtilization() <= 0 {
		t.Fatal("no PE utilization recorded")
	}
}

func TestNDConvBackwardDataMatchesTensor(t *testing.T) {
	m := newTestMachine()
	rng := tensor.NewRNG(7)
	err1 := tensor.New(1, 4, 4) // error of feature 1 (4x4 from 6x6 k3 s1 p0)
	err2 := tensor.New(1, 4, 4)
	k1 := tensor.New(1, 1, 3, 3)
	k2 := tensor.New(1, 1, 3, 3)
	rng.FillUniform(err1, 1)
	rng.FillUniform(err2, 1)
	rng.FillUniform(k1, 1)
	rng.FillUniform(k2, 1)
	cp := tensor.ConvParams{KH: 3, KW: 3, StrideH: 1, StrideW: 1}

	left := m.MemTileIndex(0, 0)
	m.WriteMem(left, 0, err1.Data)
	m.WriteMem(left, 16, err2.Data)
	m.WriteMem(left, 200, k1.Data)
	m.WriteMem(left, 209, k2.Data)

	p := prog("t",
		// BwdData: in = 2 error features 4x4, kernels at 200, out = 6x6 at right.
		opInstr(isa.NDCONV, isa.ModeBwdData, 0, isa.PortLeft, 4, 4,
			200, isa.PortLeft, 3, 1, 0, 0, isa.PortRight, 2, 0),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)

	want := tensor.Conv2DBackwardData(err1, k1, cp, 6, 6)
	tensor.Add(want, tensor.Conv2DBackwardData(err2, k2, cp, 6, 6))
	got := m.ReadMem(m.MemTileIndex(0, 1), 0, 36)
	if tensor.MaxAbsDiff(tensor.FromSlice(got, 36), tensor.FromSlice(want.Data, 36)) > 1e-5 {
		t.Fatal("backward-data mismatch")
	}
}

func TestNDConvBackwardWeightMatchesTensor(t *testing.T) {
	m := newTestMachine()
	rng := tensor.NewRNG(9)
	in := tensor.New(1, 6, 6)
	errF := tensor.New(1, 4, 4)
	rng.FillUniform(in, 1)
	rng.FillUniform(errF, 1)
	cp := tensor.ConvParams{KH: 3, KW: 3, StrideH: 1, StrideW: 1}

	left := m.MemTileIndex(0, 0)
	m.WriteMem(left, 0, in.Data)
	m.WriteMem(left, 50, errF.Data)

	p := prog("t",
		// BwdWeight: in = input 6x6; k operand = error features (side 4);
		// out = 3x3 kernel gradient, acc=0.
		opInstr(isa.NDCONV, isa.ModeBwdWeight, 0, isa.PortLeft, 6, 6,
			50, isa.PortLeft, 4, 1, 0, 0, isa.PortRight, 1, 0),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)

	want := tensor.New(1, 1, 3, 3)
	tensor.Conv2DBackwardWeights(in, errF, want, cp)
	got := m.ReadMem(m.MemTileIndex(0, 1), 0, 9)
	if tensor.MaxAbsDiff(tensor.FromSlice(got, 9), tensor.FromSlice(want.Data, 9)) > 1e-5 {
		t.Fatalf("backward-weight mismatch: %v vs %v", got, want.Data)
	}
}

func TestMatMulForwardAndBackward(t *testing.T) {
	m := newTestMachine()
	w := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	x := tensor.FromSlice([]float32{1, 0, -1}, 3)
	g := tensor.FromSlice([]float32{1, 1}, 2)
	left := m.MemTileIndex(0, 0)
	m.WriteMem(left, 0, w.Data)
	m.WriteMem(left, 10, x.Data)
	m.WriteMem(left, 20, g.Data)

	p := prog("t",
		opInstr(isa.MATMUL, isa.ModeFwd, 0, isa.PortLeft, 2, 3, 10, isa.PortLeft, 30, isa.PortLeft, 0),
		opInstr(isa.MATMUL, isa.ModeBwdData, 0, isa.PortLeft, 2, 3, 20, isa.PortLeft, 40, isa.PortLeft, 0),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	fwd := m.ReadMem(left, 30, 2)
	if fwd[0] != -2 || fwd[1] != -2 {
		t.Fatalf("MATMUL fwd: %v", fwd)
	}
	bwd := m.ReadMem(left, 40, 3)
	if bwd[0] != 5 || bwd[1] != 7 || bwd[2] != 9 {
		t.Fatalf("MATMUL bwd: %v", bwd)
	}
}

func TestActFnForwardAndDerivative(t *testing.T) {
	m := newTestMachine()
	left := m.MemTileIndex(0, 0)
	m.WriteMem(left, 0, []float32{-1, 0, 2})
	m.WriteMem(left, 10, []float32{10, 10, 10}) // error to scale by relu'
	p := prog("t",
		opInstr(isa.NDACTFN, isa.ActFnReLU, 0, isa.PortLeft, 3, 20, isa.PortLeft),
		// derivative: err(10..) *= relu'(y at 20..)
		opInstr(isa.NDACTFN, isa.ActFnDerivBase+isa.ActFnReLU, 20, isa.PortLeft, 3, 10, isa.PortLeft),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	y := m.ReadMem(left, 20, 3)
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Fatalf("relu: %v", y)
	}
	e := m.ReadMem(left, 10, 3)
	if e[0] != 0 || e[1] != 0 || e[2] != 10 {
		t.Fatalf("relu deriv: %v", e)
	}
}

func TestSubsampUpsampRoundTrip(t *testing.T) {
	m := newTestMachine()
	left := m.MemTileIndex(0, 0)
	in := []float32{1, 2, 3, 9, 5, 6, 7, 8, 4, 3, 2, 1, 0, 0, 0, 5}
	m.WriteMem(left, 0, in)
	p := prog("t",
		// max pool 2x2 s2 of 4x4 at 0 → out 2x2 at 50
		opInstr(isa.NDSUBSAMP, isa.SampMax, 0, isa.PortLeft, 4, 4, 2, 2, 0, 50, isa.PortLeft),
		// upsample gradient at 60 (2x2) back to 4x4 at 70, routing via fwd out 50
		opInstr(isa.NDUPSAMP, isa.SampMax, 60, isa.PortLeft, 4, 4, 2, 2, 0, 70, isa.PortLeft, 50),
	)
	m.WriteMem(left, 60, []float32{10, 20, 30, 40})
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	pooled := m.ReadMem(left, 50, 4)
	// windows: {1,2,5,6}→6 {3,9,7,8}→9 {4,3,0,0}→4 {2,1,0,5}→5
	if pooled[0] != 6 || pooled[1] != 9 || pooled[2] != 4 || pooled[3] != 5 {
		t.Fatalf("pooled: %v", pooled)
	}
	up := m.ReadMem(left, 70, 16)
	// gradient lands at argmax positions (6@5, 9@3, 4@8, 5@15)
	if up[5] != 10 || up[3] != 20 || up[8] != 30 || up[15] != 40 {
		t.Fatalf("upsampled: %v", up)
	}
	var s float32
	for _, v := range up {
		s += v
	}
	if s != 100 {
		t.Fatalf("gradient mass: %v", s)
	}
}

func TestVecMulOuterProduct(t *testing.T) {
	m := newTestMachine()
	left := m.MemTileIndex(0, 0)
	m.WriteMem(left, 0, []float32{1, 2})     // g
	m.WriteMem(left, 10, []float32{3, 4, 5}) // x
	p := prog("t",
		opInstr(isa.VECMUL, 20, isa.PortLeft, 0, isa.PortLeft, 2, 10, isa.PortLeft, 3),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	got := m.ReadMem(left, 20, 6)
	want := []float32{3, 4, 5, 6, 8, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outer: %v", got)
		}
	}
}

func TestWUpdateAndMemSet(t *testing.T) {
	m := newTestMachine()
	left := m.MemTileIndex(0, 0)
	m.WriteMem(left, 0, []float32{1, 1})   // w
	m.WriteMem(left, 10, []float32{4, -8}) // dw
	lr := int64(0.5 * float64(int64(1)<<isa.WUpdateLRShift))
	p := prog("t",
		opInstr(isa.WUPDATE, 0, isa.PortLeft, 10, isa.PortLeft, 2, lr),
		opInstr(isa.MEMSET, 10, isa.PortLeft, 2, int64(math.Float32bits(0))),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	w := m.ReadMem(left, 0, 2)
	if w[0] != -1 || w[1] != 5 {
		t.Fatalf("wupdate: %v", w)
	}
	dw := m.ReadMem(left, 10, 2)
	if dw[0] != 0 || dw[1] != 0 {
		t.Fatalf("memset: %v", dw)
	}
}

func TestTrackerOrdersProducerConsumer(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
	// Producer (tile r0,c0 FP) writes 4 elems to right tile addr 0 after a
	// long scalar delay; consumer (tile r0,c1 FP — right tile is its LEFT)
	// reads it to ext. Tracker: 1 update then 1 read.
	mid := m.MemTileIndex(0, 1)
	m.ArmTrackers([]TrackerSpec{{MemTile: mid, Addr: 0, Size: 4, NumUpdates: 1, NumReads: 1}})
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{5, 6, 7, 8})

	delay := []isa.Instr{isa.Ldri(1, 200), isa.Subri(1, 1, 1), isa.Bgtz(1, -2)}
	producer := prog("p", delay, opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.PortRight, 4, 0))
	consumer := prog("c", opInstr(isa.DMASTORE, 0, isa.PortLeft, 300, isa.PortExt, 4, 0))
	if err := m.LoadProgram(0, 0, StepFP, producer); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(0, 1, StepFP, consumer); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	got := m.ReadExt(300, 4)
	if got[0] != 5 || got[3] != 8 {
		t.Fatalf("consumer read before producer wrote: %v", got)
	}
}

func TestTrackerGenerationalReset(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
	// Range with 1 update / 1 read per generation, exercised twice: write A,
	// read A, write B, read B. The second write must wait for the first read.
	mid := m.MemTileIndex(0, 1)
	m.ArmTrackers([]TrackerSpec{{MemTile: mid, Addr: 0, Size: 2, NumUpdates: 1, NumReads: 1}})
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{1, 2})
	m.WriteMem(m.MemTileIndex(0, 0), 10, []float32{3, 4})

	producer := prog("p",
		opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.PortRight, 2, 0),
		opInstr(isa.DMASTORE, 10, isa.PortLeft, 0, isa.PortRight, 2, 0), // gen 2
	)
	consumer := prog("c",
		opInstr(isa.DMASTORE, 0, isa.PortLeft, 300, isa.PortExt, 2, 0),
		opInstr(isa.DMASTORE, 0, isa.PortLeft, 310, isa.PortExt, 2, 0),
	)
	if err := m.LoadProgram(0, 0, StepFP, producer); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(0, 1, StepFP, consumer); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	g1 := m.ReadExt(300, 2)
	g2 := m.ReadExt(310, 2)
	if g1[0] != 1 || g1[1] != 2 {
		t.Fatalf("gen 1 read: %v", g1)
	}
	if g2[0] != 3 || g2[1] != 4 {
		t.Fatalf("gen 2 read: %v", g2)
	}
}

func TestTrackerAccumulationFromTwoProducers(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
	// Two producers accumulate into the same tracked range (NumUpdates=2);
	// a consumer reads the sum. Commutativity means either arrival order
	// must give the same result (§3.2.4 insight (ii)).
	mid := m.MemTileIndex(0, 1)
	m.ArmTrackers([]TrackerSpec{{MemTile: mid, Addr: 0, Size: 2, NumUpdates: 2, NumReads: 1}})
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{1, 10}) // producer A data
	m.WriteMem(m.MemTileIndex(1, 0), 0, []float32{2, 20}) // producer B data

	pa := prog("a", opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.PortRight, 2, 1))
	delay := []isa.Instr{isa.Ldri(1, 50), isa.Subri(1, 1, 1), isa.Bgtz(1, -2)}
	// Producer B sits in row 1, so its right neighbour is a different tile;
	// it targets the shared range via an absolute tile port.
	pb := prog("b", delay, opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.AbsTile(mid), 2, 1))
	consumer := prog("c", opInstr(isa.DMASTORE, 0, isa.PortLeft, 400, isa.PortExt, 2, 0))
	if err := m.LoadProgram(0, 0, StepFP, pa); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(1, 0, StepFP, pb); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(0, 1, StepFP, consumer); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	got := m.ReadExt(400, 2)
	if got[0] != 3 || got[1] != 30 {
		t.Fatalf("accumulated read: %v", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
	// Tracker expects 2 updates but only 1 arrives → the reader deadlocks.
	mid := m.MemTileIndex(0, 1)
	m.ArmTrackers([]TrackerSpec{{MemTile: mid, Addr: 0, Size: 2, NumUpdates: 2, NumReads: 1}})
	producer := prog("p", opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.PortRight, 2, 1))
	consumer := prog("c", opInstr(isa.DMASTORE, 0, isa.PortLeft, 300, isa.PortExt, 2, 0))
	if err := m.LoadProgram(0, 0, StepFP, producer); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(0, 1, StepFP, consumer); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run()
	if err == nil {
		t.Fatal("expected deadlock")
	}
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if len(de.Blocked) != 1 || !strings.Contains(de.Blocked[0], "comp[r0,c1,FP]") {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestNACKOnFullQueue(t *testing.T) {
	chip := testChip()
	chip.MemHeavy.TrackQueueDepth = 1
	chip.Rows = 2
	m := NewMachine(chip, arch.Single, true)
	m.SetExtMem(1024)
	// One producer delayed; two consumers block on the same tracker — one
	// queues, the other NACKs and retries.
	mid := m.MemTileIndex(0, 1)
	m.ArmTrackers([]TrackerSpec{{MemTile: mid, Addr: 0, Size: 2, NumUpdates: 1, NumReads: 2}})
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{7, 9})
	delay := []isa.Instr{isa.Ldri(1, 400), isa.Subri(1, 1, 1), isa.Bgtz(1, -2)}
	producer := prog("p", delay, opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.PortRight, 2, 0))
	mkConsumer := func(dst int64) *isa.Program {
		return prog("c", opInstr(isa.DMASTORE, 0, isa.AbsTile(mid), dst, isa.PortExt, 2, 0))
	}
	if err := m.LoadProgram(0, 0, StepFP, producer); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(0, 1, StepFP, mkConsumer(500)); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(1, 1, StepBP, mkConsumer(510)); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, m)
	if st.NACKs == 0 {
		t.Fatal("expected NACKs with queue depth 1")
	}
	a, b := m.ReadExt(500, 2), m.ReadExt(510, 2)
	if a[0] != 7 || b[0] != 7 {
		t.Fatalf("consumers read %v / %v", a, b)
	}
}

func TestTimingDMAContention(t *testing.T) {
	// Two DMAs through the same MemHeavy tile serialize on its DMA engine.
	m := newTestMachine()
	m.SetExtMem(20000)
	m.WriteExt(0, make([]float32, 20000))
	p1 := prog("p1", opInstr(isa.DMALOAD, 0, isa.PortExt, 0, isa.PortLeft, 5000, 0))
	p2 := prog("p2", opInstr(isa.DMALOAD, 10000, isa.PortExt, 5000, isa.PortLeft, 5000, 0))
	if err := m.LoadProgram(0, 0, StepFP, p1); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(0, 0, StepBP, p2); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, m)
	single := NewMachine(testChip(), arch.Single, true)
	single.SetExtMem(20000)
	single.WriteExt(0, make([]float32, 20000))
	if err := single.LoadProgram(0, 0, StepFP, prog("q", opInstr(isa.DMALOAD, 0, isa.PortExt, 0, isa.PortLeft, 5000, 0))); err != nil {
		t.Fatal(err)
	}
	stSingle := mustRun(t, single)
	if st.Cycles < stSingle.Cycles*3/2 {
		t.Fatalf("no DMA serialization: both %d vs one %d", st.Cycles, stSingle.Cycles)
	}
}

func TestTimingOnlyModeCarriesNoData(t *testing.T) {
	m := NewMachine(testChip(), arch.Single, false)
	m.SetExtMem(1024)
	m.WriteExt(0, []float32{1, 2, 3, 4})
	p := prog("t", opInstr(isa.DMALOAD, 0, isa.PortExt, 0, isa.PortLeft, 4, 0))
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, m)
	if st.Cycles == 0 {
		t.Fatal("no cycles in timing mode")
	}
	got := m.ReadMem(m.MemTileIndex(0, 0), 0, 4)
	for _, v := range got {
		if v != 0 {
			t.Fatal("timing-only mode moved data")
		}
	}
}

func TestScratchpadOverflowPanics(t *testing.T) {
	m := newTestMachine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity overflow")
		}
	}()
	cap := int64(testChip().MemHeavy.CapacityKB) * 1024 / 4
	m.WriteMem(0, cap-1, []float32{1, 2})
}

func TestMemTrackInstructionArms(t *testing.T) {
	m := newTestMachine()
	// Producer arms a tracker itself (no manifest) before the consumer's op
	// arrives — exercises the MEMTRACK instruction path end-to-end.
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{1, 2})
	producer := prog("p",
		opInstr(isa.MEMTRACK, isa.PortRight, 0, 2, 1, 1),
		opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.PortRight, 2, 0),
	)
	if err := m.LoadProgram(0, 0, StepFP, producer); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	got := m.ReadMem(m.MemTileIndex(0, 1), 0, 2)
	if got[0] != 1 {
		t.Fatalf("tracked write failed: %v", got)
	}
}
