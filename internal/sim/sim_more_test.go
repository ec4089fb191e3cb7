package sim

import (
	"strings"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/isa"
	"scaledeep/internal/tensor"
)

func TestNDAccAccumulatesRanges(t *testing.T) {
	m := newTestMachine()
	left := m.MemTileIndex(0, 0)
	m.WriteMem(left, 0, []float32{1, 2, 3})
	m.WriteMem(left, 10, []float32{10, 20, 30})
	p := prog("t", opInstr(isa.NDACC, 10, isa.PortLeft, 0, isa.PortLeft, 3))
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	got := m.ReadMem(left, 10, 3)
	if got[0] != 11 || got[1] != 22 || got[2] != 33 {
		t.Fatalf("NDACC = %v", got)
	}
}

func TestPassBuffContributesTimeAndTraffic(t *testing.T) {
	m := newTestMachine()
	m.WriteMem(m.MemTileIndex(0, 0), 0, make([]float32, 100))
	p := prog("t", opInstr(isa.PASSBUFF, 0, isa.PortLeft, 0, 100))
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, m)
	if st.CompMemBytes != 400 {
		t.Fatalf("PASSBUFF traffic = %d", st.CompMemBytes)
	}
	if st.Cycles < 2 {
		t.Fatalf("PASSBUFF took %d cycles", st.Cycles)
	}
}

func TestSetFreqChangesDMACycles(t *testing.T) {
	slow := newTestMachine()
	slow.SetExtMem(10000)
	slow.SetFreq(1200e6) // double clock → more cycles per byte at same GB/s
	slow.WriteExt(0, make([]float32, 10000))
	p := func() *isa.Program { return prog("t", opInstr(isa.DMALOAD, 0, isa.PortExt, 0, isa.PortLeft, 10000, 0)) }
	if err := slow.LoadProgram(0, 0, StepFP, p()); err != nil {
		t.Fatal(err)
	}
	stSlow := mustRun(t, slow)

	fast := newTestMachine() // default 600 MHz
	fast.SetExtMem(10000)
	fast.WriteExt(0, make([]float32, 10000))
	if err := fast.LoadProgram(0, 0, StepFP, p()); err != nil {
		t.Fatal(err)
	}
	stFast := mustRun(t, fast)
	if stSlow.Cycles <= stFast.Cycles {
		t.Fatalf("higher clock should cost more cycles per transfer: %d vs %d", stSlow.Cycles, stFast.Cycles)
	}
}

func TestStatsAccessors(t *testing.T) {
	m := newTestMachine()
	left := m.MemTileIndex(0, 0)
	m.WriteMem(left, 0, []float32{1, 2, 3, 4})
	p := prog("t",
		opInstr(isa.NDACTFN, isa.ActFnReLU, 0, isa.PortLeft, 4, 10, isa.PortLeft),
		opInstr(isa.NDCONV, isa.ModeFwd, 0, isa.PortLeft, 2, 2, 0, isa.PortLeft, 1, 1, 0, 20, isa.PortLeft, 1, 0),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, m)
	if st.SFUUtilization() <= 0 {
		t.Error("SFU utilization zero after NDACTFN")
	}
	if st.EffectiveFLOPs() <= 0 {
		t.Error("effective FLOPs zero after NDCONV")
	}
	s := st.String()
	for _, want := range []string{"cycles=", "flops=", "peUtil="} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats.String missing %q: %s", want, s)
		}
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	d := &DeadlockError{Cycle: 42, Blocked: []string{"comp[r0,c0,FP] pc=3: NDCONV on track[0+4]"}}
	msg := d.Error()
	if !strings.Contains(msg, "deadlock at cycle 42") || !strings.Contains(msg, "comp[r0,c0,FP]") {
		t.Fatalf("message: %s", msg)
	}
}

func TestHalfPrecisionMachineQuantizesStores(t *testing.T) {
	chip := testChip()
	m := NewMachine(chip, arch.Half, true)
	left := m.MemTileIndex(0, 0)
	// 1.0001 is not representable in binary16.
	m.WriteMem(left, 0, []float32{1.0001})
	got := m.ReadMem(left, 0, 1)
	if got[0] == 1.0001 {
		t.Fatal("preload not quantized")
	}
	if got[0] != tensor.RoundHalf(1.0001) {
		t.Fatalf("quantized to %v", got[0])
	}
	// Ops quantize too: an activation output lands rounded.
	m.WriteMem(left, 10, []float32{0.30000001})
	p := prog("t", opInstr(isa.NDACTFN, isa.ActFnTanh, 10, isa.PortLeft, 1, 20, isa.PortLeft))
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	out := m.ReadMem(left, 20, 1)
	if out[0] != tensor.RoundHalf(out[0]) {
		t.Fatalf("op result %v not binary16", out[0])
	}
}

func TestTrackerOverUpdatePanics(t *testing.T) {
	// More writes than NumUpdates in a generation is a compiler bug the
	// tracker must catch loudly.
	m := newTestMachine()
	mid := m.MemTileIndex(0, 1)
	m.ArmTrackers([]TrackerSpec{{MemTile: mid, Addr: 0, Size: 2, NumUpdates: 1, NumReads: 100}})
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{1, 2})
	p := prog("t",
		opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.PortRight, 2, 1),
		opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.PortRight, 2, 1),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run()
	// Second write of the generation: tracker blocks it (canWrite false) and
	// the run deadlocks rather than corrupting the range.
	if err == nil {
		t.Fatal("expected deadlock or panic on over-update")
	}
}

func TestOverlappingTrackerArmPanics(t *testing.T) {
	m := newTestMachine()
	mid := m.MemTileIndex(0, 1)
	m.ArmTrackers([]TrackerSpec{{MemTile: mid, Addr: 0, Size: 8, NumUpdates: 1, NumReads: 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overlapping tracker")
		}
	}()
	m.ArmTrackers([]TrackerSpec{{MemTile: mid, Addr: 4, Size: 8, NumUpdates: 1, NumReads: 1}})
}

func TestLoadProgramRejectsOutOfRangeTile(t *testing.T) {
	m := newTestMachine()
	if err := m.LoadProgram(99, 0, StepFP, prog("t")); err == nil {
		t.Fatal("expected error")
	}
	if err := m.LoadProgram(0, 99, StepFP, prog("t")); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunWithNoProgramsFails(t *testing.T) {
	m := newTestMachine()
	if _, err := m.Run(); err == nil {
		t.Fatal("expected error with no programs")
	}
}
