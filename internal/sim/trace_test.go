package sim

import (
	"strings"
	"testing"

	"scaledeep/internal/isa"
)

func TestTraceRecordsOpsAndStalls(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
	m.EnableTrace(0)
	mid := m.MemTileIndex(0, 1)
	m.ArmTrackers([]TrackerSpec{{MemTile: mid, Addr: 0, Size: 2, NumUpdates: 1, NumReads: 1}})
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{5, 6})
	delay := []isa.Instr{isa.Ldri(1, 100), isa.Subri(1, 1, 1), isa.Bgtz(1, -2)}
	producer := prog("p", delay, opInstr(isa.DMASTORE, 0, isa.PortLeft, 0, isa.PortRight, 2, 0))
	consumer := prog("c", opInstr(isa.DMASTORE, 0, isa.PortLeft, 300, isa.PortExt, 2, 0))
	if err := m.LoadProgram(0, 0, StepFP, producer); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(0, 1, StepFP, consumer); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)

	events := m.Trace()
	if len(events) < 3 {
		t.Fatalf("trace too short: %v", events)
	}
	sawDMA, sawStall := false, false
	for _, e := range events {
		if e.Op == "DMASTORE" {
			sawDMA = true
			if e.End < e.Start {
				t.Fatalf("negative duration: %v", e)
			}
		}
		if e.Op == "STALL" {
			sawStall = true
			if !strings.Contains(e.Note, "track") {
				t.Fatalf("stall note missing tracker: %v", e)
			}
		}
	}
	if !sawDMA || !sawStall {
		t.Fatalf("trace missing events (dma=%v stall=%v):\n%s", sawDMA, sawStall, FormatTrace(events))
	}

	text := FormatTrace(events)
	if !strings.Contains(text, "comp[r0,c1,FP]") || !strings.Contains(text, "STALL") {
		t.Fatalf("formatted trace:\n%s", text)
	}

	sum := Summarize(events)
	if sum.OpCycles["DMASTORE"] <= 0 {
		t.Fatal("summary missing DMASTORE cycles")
	}
	if sum.Stalls["comp[r0,c1,FP]"] == 0 {
		t.Fatal("summary missing consumer stall")
	}
}

func TestTraceLimitDropsExcess(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
	m.EnableTrace(2)
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{1})
	var groups [][]isa.Instr
	for i := 0; i < 5; i++ {
		groups = append(groups, opInstr(isa.DMASTORE, 0, isa.PortLeft, int64(100+i), isa.PortExt, 1, 0))
	}
	if err := m.LoadProgram(0, 0, StepFP, prog("t", groups...)); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	if len(m.Trace()) != 2 {
		t.Fatalf("trace kept %d events, limit 2", len(m.Trace()))
	}
	if m.TraceDropped() != 3 {
		t.Fatalf("dropped %d, want 3", m.TraceDropped())
	}
}

func TestSummarizeAndFormatEmptyTrace(t *testing.T) {
	sum := Summarize(nil)
	if len(sum.OpCycles) != 0 || len(sum.Stalls) != 0 {
		t.Fatalf("empty trace summarized to %+v", sum)
	}
	text := FormatTrace(nil)
	if !strings.Contains(text, "cycles") || strings.Count(text, "\n") != 1 {
		t.Fatalf("empty trace formatted to %q", text)
	}
}

func TestSummarizeStallOnlyTrace(t *testing.T) {
	events := []TraceEvent{
		{Start: 10, End: 10, Tile: "comp[r0,c0,FP]", Op: "STALL", Note: "read on tracker"},
		{Start: 12, End: 12, Tile: "comp[r0,c0,FP]", Op: "STALL", Note: "read on tracker"},
		{Start: 15, End: 15, Tile: "comp[r1,c0,FP]", Op: "STALL", Note: "write on tracker"},
	}
	sum := Summarize(events)
	if len(sum.OpCycles) != 0 {
		t.Fatalf("stall-only trace produced op cycles: %v", sum.OpCycles)
	}
	if sum.Stalls["comp[r0,c0,FP]"] != 2 || sum.Stalls["comp[r1,c0,FP]"] != 1 {
		t.Fatalf("stall counts: %v", sum.Stalls)
	}
	text := FormatTrace(events)
	if strings.Count(text, "STALL") != 3 {
		t.Fatalf("formatted stall-only trace:\n%s", text)
	}
}

func TestSummarizeTraceAtDropLimit(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
	m.EnableTrace(3)
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{1})
	var groups [][]isa.Instr
	for i := 0; i < 6; i++ {
		groups = append(groups, opInstr(isa.DMASTORE, 0, isa.PortLeft, int64(100+i), isa.PortExt, 1, 0))
	}
	if err := m.LoadProgram(0, 0, StepFP, prog("t", groups...)); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	if m.TraceDropped() == 0 {
		t.Fatal("expected drops at the limit")
	}
	events := m.Trace()
	if len(events) != 3 {
		t.Fatalf("kept %d events, limit 3", len(events))
	}
	// The truncated trace still summarizes and formats cleanly.
	sum := Summarize(events)
	if sum.OpCycles["DMASTORE"] <= 0 {
		t.Fatalf("summary of truncated trace: %+v", sum)
	}
	if lines := strings.Count(FormatTrace(events), "\n"); lines != 4 {
		t.Fatalf("formatted truncated trace has %d lines", lines)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{1})
	if err := m.LoadProgram(0, 0, StepFP, prog("t", opInstr(isa.DMASTORE, 0, isa.PortLeft, 100, isa.PortExt, 1, 0))); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	if len(m.Trace()) != 0 {
		t.Fatal("trace recorded without EnableTrace")
	}
}
