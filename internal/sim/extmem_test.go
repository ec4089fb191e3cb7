package sim

import (
	"fmt"
	"strings"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/isa"
)

// TestRunAllocBudget bounds the steady-state allocation cost of a run on a
// reused machine: Reset + reload + Run must stay within a small fixed
// budget (the seed inner loop allocated per instruction and per DMA; the
// scratch-arena rewrite's budget covers only per-run bookkeeping).
func TestRunAllocBudget(t *testing.T) {
	m := newTestMachine()
	p := prog("t",
		opInstrAt(8, isa.MEMSET, 0, int64(isa.PortLeft), 16, 0),
		opInstrAt(16, isa.DMASTORE, 0, int64(isa.PortLeft), 0, int64(isa.PortRight), 16, 0),
		opInstrAt(24, isa.DMASTORE, 0, int64(isa.PortRight), 64, int64(isa.PortLeft), 16, 0),
	)
	cycle := func() {
		m.Reset()
		if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm: grow the arena, event queue and stats slices once
	if avg := testing.AllocsPerRun(50, cycle); avg > 40 {
		t.Fatalf("Reset+LoadProgram+Run allocates %.1f objects/run, budget 40", avg)
	}
}

// extFault runs fn and returns the simulator fault it raised ("" if none).
func extFault(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestExtMemAccessPastExtent: external memory holds exactly the extent set
// by SetExtMem. A DMA ending one element past it faults with an extmem
// message naming the extent, in functional and timing-only mode alike, and
// so do host-side writes; an access ending exactly at the extent is fine.
func TestExtMemAccessPastExtent(t *testing.T) {
	const extent = 16
	for _, functional := range []bool{true, false} {
		run := func(dst int64) string {
			m := NewMachine(testChip(), arch.Single, functional)
			m.SetExtMem(extent)
			if err := m.LoadProgram(0, 0, StepFP, prog("t", opInstr(isa.DMASTORE, 0, isa.PortLeft, dst, isa.PortExt, 4, 0))); err != nil {
				t.Fatal(err)
			}
			return extFault(func() { mustRun(t, m) })
		}
		if msg := run(extent - 4); msg != "" {
			t.Fatalf("functional=%v: in-extent DMA faulted: %s", functional, msg)
		}
		msg := run(extent - 3)
		if !strings.Contains(msg, "extmem") || !strings.Contains(msg, "extent 16") {
			t.Fatalf("functional=%v: DMA past the extent: fault %q, want an extmem extent fault", functional, msg)
		}
		m := NewMachine(testChip(), arch.Single, functional)
		m.SetExtMem(extent)
		if msg := extFault(func() { m.WriteExt(extent-1, []float32{1, 2}) }); !strings.Contains(msg, "extmem") {
			t.Fatalf("functional=%v: WriteExt past the extent: fault %q", functional, msg)
		}
	}
}

// TestExtMemTimingOnlyHasNoBacking: timing-only machines check the extent
// but store nothing, so external reads come back zero.
func TestExtMemTimingOnlyHasNoBacking(t *testing.T) {
	m := NewMachine(testChip(), arch.Single, false)
	m.SetExtMem(1 << 20)
	m.WriteExt(0, []float32{1, 2, 3})
	if m.ext.data != nil {
		t.Fatalf("timing-only machine backs external memory with %d elements", len(m.ext.data))
	}
	if got := m.ReadExt(0, 3); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("timing-only ReadExt = %v, want zeros", got)
	}
}
