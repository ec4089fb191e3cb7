package sim

import (
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/isa"
)

// checkAttr asserts the accounting invariant and returns the aggregate.
func checkAttr(t *testing.T, st Stats) CycleAttribution {
	t.Helper()
	if err := st.CheckAttribution(); err != nil {
		t.Fatal(err)
	}
	return st.AttrTotal()
}

func TestAttributionScalarAndArray(t *testing.T) {
	m := newTestMachine()
	left := m.MemTileIndex(0, 0)
	m.WriteMem(left, 0, make([]float32, 64))
	p := prog("t",
		opInstr(isa.NDCONV, isa.ModeFwd, 0, isa.PortLeft, 6, 6, 40, isa.PortLeft, 3, 1, 0, 0, isa.PortRight, 1, 0),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, m)
	total := checkAttr(t, st)
	if total[AttrCompute] == 0 {
		t.Fatalf("no compute cycles attributed: %+v", total)
	}
	// Every unprogrammed tile is idle end to end.
	for i, a := range st.Attr {
		if m.comp[i].prog == nil && a[AttrIdle] != st.Cycles {
			t.Fatalf("unprogrammed tile %d: idle=%d want %d", i, a[AttrIdle], st.Cycles)
		}
	}
	// The single active tile ran the whole critical path: no drain.
	active := m.compIndex(0, 0, StepFP)
	if st.Attr[active][AttrDrain] != 0 {
		t.Fatalf("active tile drained %d cycles on a solo run", st.Attr[active][AttrDrain])
	}
}

func TestAttributionTrackerWaitAndDrain(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
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
	st := mustRun(t, m)
	total := checkAttr(t, st)
	cons := st.Attr[m.compIndex(0, 1, StepFP)]
	if cons[AttrTrackWait] == 0 {
		t.Fatalf("consumer blocked on the tracker but recorded no tracker-wait: %+v", cons)
	}
	if cons[AttrDMAWait] == 0 {
		t.Fatalf("consumer moved data but recorded no dma-wait: %+v", cons)
	}
	// One of the two tiles finishes first and drains.
	if total[AttrDrain] == 0 {
		t.Fatalf("expected drain skew between producer and consumer: %+v", total)
	}
}

func TestAttributionNACK(t *testing.T) {
	chip := testChip()
	chip.MemHeavy.TrackQueueDepth = 1
	m := NewMachine(chip, arch.Single, true)
	m.SetExtMem(1024)
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
	total := checkAttr(t, st)
	if st.NACKs == 0 || total[AttrTrackNACK] == 0 {
		t.Fatalf("expected NACK backoff cycles: nacks=%d attr=%+v", st.NACKs, total)
	}
}

func TestAttributionDMAContention(t *testing.T) {
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
	total := checkAttr(t, st)
	if total[AttrLinkContend] == 0 {
		t.Fatalf("serialized DMAs should show contention: %+v", total)
	}
	if total[AttrDMAWait] == 0 {
		t.Fatalf("DMA transfers should show dma-wait: %+v", total)
	}
}

func TestInstrProfilePerPC(t *testing.T) {
	m := newTestMachine()
	m.EnableInstrProfile()
	left := m.MemTileIndex(0, 0)
	m.WriteMem(left, 0, make([]float32, 64))
	p := prog("t",
		opInstr(isa.NDCONV, isa.ModeFwd, 0, isa.PortLeft, 6, 6, 40, isa.PortLeft, 3, 1, 0, 0, isa.PortRight, 1, 0),
		opInstr(isa.NDACTFN, isa.ActFnReLU, 0, isa.PortRight, 16, 20, isa.PortRight),
	)
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, m)
	checkAttr(t, st)

	if m.InstrProfile(0, 1, StepFP) != nil {
		t.Fatal("profile for a tile without a program")
	}
	prof := m.InstrProfile(0, 0, StepFP)
	if prof == nil {
		t.Fatal("no instruction profile on the active tile")
	}
	if len(prof.Attr) != len(p.Instrs) {
		t.Fatalf("profile covers %d instrs, program has %d", len(prof.Attr), len(p.Instrs))
	}
	// Per-pc cycles re-aggregate to the tile's attribution (drain/idle are
	// tile-level only).
	var sum CycleAttribution
	var flops, bytes int64
	for i := range prof.Attr {
		sum = sum.Plus(prof.Attr[i])
		flops += prof.FLOPs[i]
		bytes += prof.Bytes[i]
	}
	tile := st.Attr[m.compIndex(0, 0, StepFP)]
	for b := AttrBucket(0); b < NumAttrBuckets; b++ {
		if b == AttrDrain || b == AttrIdle {
			continue
		}
		if sum[b] != tile[b] {
			t.Fatalf("bucket %v: per-pc sum %d != tile %d", b, sum[b], tile[b])
		}
	}
	if flops != st.FLOPs || flops == 0 {
		t.Fatalf("per-pc FLOPs %d, run total %d", flops, st.FLOPs)
	}
	if bytes == 0 {
		t.Fatal("no operand bytes recorded")
	}
}
