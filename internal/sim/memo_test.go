package sim

import (
	"math"
	"reflect"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/isa"
)

// rowChip is a chip with enough rows for replica classes to form.
func rowChip(rows int) arch.ChipConfig {
	c := testChip()
	c.Rows = rows
	return c
}

// opInstrAt is opInstr with an explicit register base. The portability
// analysis is flow-insensitive — a register used as a port operand anywhere
// must only ever be loaded with 0 or 1 — so each op gets a disjoint register
// range, keeping port registers dedicated.
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

// portableRowProgram builds a program that only references its own row's
// MemHeavy tiles (PortLeft/PortRight): scalar loop, MEMSET, tracked DMA and
// a VECMUL, so clones cover scalar, array, DMA and link-byte statistics.
func portableRowProgram() *isa.Program {
	return prog("row",
		[]isa.Instr{
			isa.Ldri(1, 3),
			isa.Subri(1, 1, 1),
			isa.Bgtz(1, -2),
		},
		opInstrAt(8, isa.MEMSET, 0, int64(isa.PortLeft), 8, int64(math.Float32bits(2))),
		opInstrAt(16, isa.VECMUL, 40, int64(isa.PortLeft), 0, int64(isa.PortLeft), 2, 20, int64(isa.PortLeft), 2),
		opInstrAt(26, isa.MEMTRACK, int64(isa.PortRight), 0, 4, 1, 1),
		opInstrAt(34, isa.DMASTORE, 0, int64(isa.PortLeft), 0, int64(isa.PortRight), 4, 0),
	)
}

// loadRows installs the same program on every row of a timing-only machine.
func loadRows(t *testing.T, m *Machine, p *isa.Program) {
	t.Helper()
	for r := 0; r < m.Chip.Rows; r++ {
		if err := m.LoadProgram(r, 0, StepFP, p); err != nil {
			t.Fatal(err)
		}
	}
}

// normalizeMemo clears the fields that legitimately differ between a
// memoized and a fully-simulated run (only the memo accounting itself).
func normalizeMemo(s Stats) Stats {
	s.MemoTiles = 0
	return s
}

// TestMemoRowsExactStats is the core soundness property: on a chip whose
// rows run identical portable programs, a memoized run must produce Stats
// exactly equal — every aggregate and every per-tile series — to a full
// simulation of the same chip.
func TestMemoRowsExactStats(t *testing.T) {
	p := portableRowProgram()
	run := func(memo bool) Stats {
		m := NewMachine(rowChip(4), arch.Single, false)
		m.SetMemo(memo)
		loadRows(t, m, p)
		return mustRun(t, m)
	}
	full := run(false)
	memo := run(true)
	if memo.MemoTiles == 0 {
		t.Fatal("memoization did not engage on identical portable rows")
	}
	if full.MemoTiles != 0 {
		t.Fatalf("full run reports MemoTiles = %d", full.MemoTiles)
	}
	if !reflect.DeepEqual(normalizeMemo(full), normalizeMemo(memo)) {
		t.Fatalf("memoized stats diverge from full simulation:\nfull: %+v\nmemo: %+v", full, memo)
	}
}

// TestMemoVerifyMode checks that verification mode simulates everything and
// confirms clone/representative agreement instead of failing.
func TestMemoVerifyMode(t *testing.T) {
	m := NewMachine(rowChip(3), arch.Single, false)
	m.SetMemo(true)
	m.SetVerifyMemo(true)
	loadRows(t, m, portableRowProgram())
	st := mustRun(t, m)
	if st.MemoTiles == 0 {
		t.Fatal("verify mode did not form a memo plan")
	}
}

// TestMemoRespectsDifferentRows ensures rows with different baselines are
// not folded into one class: a WriteMem pre-load on row 1 must keep it out
// of row 0's equivalence class.
func TestMemoRespectsDifferentRows(t *testing.T) {
	p := portableRowProgram()
	m := NewMachine(rowChip(2), arch.Single, false)
	m.SetMemo(true)
	loadRows(t, m, p)
	m.WriteMem(m.MemTileIndex(1, 0), 100, []float32{1, 2, 3}) // perturb row 1's baseline
	st := mustRun(t, m)
	if st.MemoTiles != 0 {
		t.Fatalf("rows with different scratchpad baselines were memoized (MemoTiles = %d)", st.MemoTiles)
	}
}

// TestMemoDisabledByObservers: any attached observer must force a full
// simulation, since replicas would otherwise emit no samples.
func TestMemoDisabledByObservers(t *testing.T) {
	m := NewMachine(rowChip(2), arch.Single, false)
	m.SetMemo(true)
	m.EnableTrace(8)
	loadRows(t, m, portableRowProgram())
	st := mustRun(t, m)
	if st.MemoTiles != 0 {
		t.Fatalf("memoization engaged under tracing (MemoTiles = %d)", st.MemoTiles)
	}
}

// TestMemoNonPortableProgram: a program addressing external memory couples
// rows through shared state, so memoization must decline to plan.
func TestMemoNonPortableProgram(t *testing.T) {
	p := prog("ext",
		opInstr(isa.DMASTORE, 0, int64(isa.PortLeft), 100, int64(isa.PortExt), 4, 0),
	)
	m := NewMachine(rowChip(2), arch.Single, false)
	m.SetExtMem(1024)
	m.SetMemo(true)
	loadRows(t, m, p)
	st := mustRun(t, m)
	if st.MemoTiles != 0 {
		t.Fatalf("non-portable program was memoized (MemoTiles = %d)", st.MemoTiles)
	}
}
