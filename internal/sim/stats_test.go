package sim

import (
	"testing"

	"scaledeep/internal/isa"
)

// TestCollectStatsResetsCycles is the regression test for the stale-Cycles
// bug: collectStats never reset Stats.Cycles, so re-aggregating on a reused
// Machine carried the previous maximum forward.
func TestCollectStatsResetsCycles(t *testing.T) {
	m := newTestMachine()
	m.SetExtMem(1024)
	m.WriteMem(m.MemTileIndex(0, 0), 0, []float32{1})
	p := prog("t", opInstr(isa.DMASTORE, 0, isa.PortLeft, 100, isa.PortExt, 1, 0))
	if err := m.LoadProgram(0, 0, StepFP, p); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, m)
	if st.Cycles <= 0 {
		t.Fatalf("cycles = %d", st.Cycles)
	}

	// Simulate a stale carry-over (e.g. from a previous, longer run on a
	// reused Machine) and re-aggregate: the result must be derived from the
	// tiles' actual times, not the stale maximum.
	m.stats.Cycles = st.Cycles + 1_000_000
	m.collectStats()
	if m.stats.Cycles != st.Cycles {
		t.Fatalf("re-aggregated cycles = %d, want %d (stale max leaked)", m.stats.Cycles, st.Cycles)
	}
}
