package sim

import (
	"encoding/json"
	"reflect"
	"testing"

	"scaledeep/internal/arch"
	"scaledeep/internal/isa"
	"scaledeep/internal/par"
	"scaledeep/internal/telemetry"
)

// rowProgramN is portableRowProgram with a row-specific scalar loop length,
// so different rows do different amounts of work and the shard merge order
// actually matters.
func rowProgramN(iters int64) *isa.Program {
	return prog("row",
		[]isa.Instr{
			isa.Ldri(1, int32(iters)),
			isa.Subri(1, 1, 1),
			isa.Bgtz(1, -2),
		},
		opInstrAt(8, isa.MEMSET, 0, int64(isa.PortLeft), 8, 0x40000000),
		opInstrAt(16, isa.VECMUL, 40, int64(isa.PortLeft), 0, int64(isa.PortLeft), 2, 20, int64(isa.PortLeft), 2),
		opInstrAt(26, isa.MEMTRACK, int64(isa.PortRight), 0, 4, 1, 1),
		opInstrAt(34, isa.DMASTORE, 0, int64(isa.PortLeft), 0, int64(isa.PortRight), 4, 0),
	)
}

// colProgram is a tracker-free portable program on a disjoint address range,
// installed next to rowProgramN so one shard drives multiple tiles without
// touching the first column's tracked ranges.
func colProgram(iters int64) *isa.Program {
	return prog("col",
		[]isa.Instr{
			isa.Ldri(1, int32(iters)),
			isa.Subri(1, 1, 1),
			isa.Bgtz(1, -2),
		},
		opInstrAt(8, isa.MEMSET, 64, int64(isa.PortLeft), 8, 0x3f800000),
		opInstrAt(16, isa.VECMUL, 96, int64(isa.PortLeft), 64, int64(isa.PortLeft), 2, 80, int64(isa.PortLeft), 2),
	)
}

// loadStaggeredRows installs a different-length program on every row (and on
// two compute columns of row 0, so one shard drives multiple tiles).
func loadStaggeredRows(t *testing.T, m *Machine) {
	t.Helper()
	for r := 0; r < m.Chip.Rows; r++ {
		if err := m.LoadProgram(r, 0, StepFP, rowProgramN(int64(2+3*r))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.LoadProgram(0, 1, StepBP, colProgram(9)); err != nil {
		t.Fatal(err)
	}
}

// TestTileWorkersStatsByteIdentical is the tentpole property: Stats — every
// aggregate and every per-tile series — must be exactly equal at every
// tile-worker count, functional and timing-only alike.
func TestTileWorkersStatsByteIdentical(t *testing.T) {
	prev := par.SetWorkers(8)
	defer par.SetWorkers(prev)
	for _, functional := range []bool{false, true} {
		run := func(workers int) (Stats, [][]float32) {
			m := NewMachine(rowChip(4), arch.Single, functional)
			m.SetTileWorkers(workers)
			loadStaggeredRows(t, m)
			st := mustRun(t, m)
			if err := st.CheckAttribution(); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			var mem [][]float32
			if functional {
				for i := range m.mem {
					mem = append(mem, m.ReadMem(i, 0, 64))
				}
			}
			return st, mem
		}
		base, baseMem := run(1)
		for _, w := range []int{2, 8} {
			st, mem := run(w)
			if !reflect.DeepEqual(base, st) {
				t.Fatalf("functional=%v: stats at tile-workers=%d diverge from serial:\nserial: %+v\nw=%d:  %+v",
					functional, w, base, w, st)
			}
			if !reflect.DeepEqual(baseMem, mem) {
				t.Fatalf("functional=%v: scratchpad contents at tile-workers=%d diverge from serial", functional, w)
			}
		}
	}
}

// TestTileWorkersTraceAndMetricsByteIdentical pins the observability side:
// the recorded trace (rendered to text), dropped-event count, span batch and
// metric snapshot must be byte-identical at every tile-worker count.
func TestTileWorkersTraceAndMetricsByteIdentical(t *testing.T) {
	prev := par.SetWorkers(8)
	defer par.SetWorkers(prev)
	type capture struct {
		trace   string
		dropped int
		spans   []telemetry.Span
		metrics string
	}
	run := func(workers int) capture {
		m := NewMachine(rowChip(4), arch.Single, false)
		m.SetTileWorkers(workers)
		m.EnableTrace(16) // small limit: truncation must be deterministic too
		ring := telemetry.NewTrace(256)
		m.SetSpanSink(ring)
		reg := telemetry.NewRegistry()
		m.SetMetrics(reg)
		loadStaggeredRows(t, m)
		mustRun(t, m)
		snap, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return capture{
			trace:   FormatTrace(m.Trace()),
			dropped: m.TraceDropped(),
			spans:   ring.Spans(),
			metrics: string(snap),
		}
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.trace != base.trace {
			t.Fatalf("trace at tile-workers=%d diverges from serial:\nserial:\n%s\nw=%d:\n%s", w, base.trace, w, got.trace)
		}
		if got.dropped != base.dropped {
			t.Fatalf("dropped count at tile-workers=%d: %d != %d", w, got.dropped, base.dropped)
		}
		if !reflect.DeepEqual(got.spans, base.spans) {
			t.Fatalf("span batch at tile-workers=%d diverges from serial", w)
		}
		if got.metrics != base.metrics {
			t.Fatalf("metric snapshot at tile-workers=%d diverges:\nserial: %s\nw=%d: %s", w, base.metrics, w, got.metrics)
		}
	}
}

// TestShardedMatchesGlobalLoop checks the partitioning against the legacy
// single-queue interleaving directly: on portable programs the global event
// loop and the row-sharded loop must leave identical per-tile state, because
// cross-row interleaving only time-multiplexed closed subsystems.
func TestShardedMatchesGlobalLoop(t *testing.T) {
	run := func(global bool) Stats {
		m := NewMachine(rowChip(4), arch.Single, false)
		loadStaggeredRows(t, m)
		if !m.canShard() {
			t.Fatal("test programs must be portable")
		}
		active := 0
		for _, ct := range m.comp {
			if ct.prog != nil {
				active++
			}
		}
		m.finished = 0
		var dl *DeadlockError
		if global {
			dl = m.runGlobal(active)
		} else {
			dl = m.runSharded(active)
		}
		if dl != nil {
			t.Fatal(dl)
		}
		m.collectStats()
		return m.stats
	}
	globalStats := run(true)
	sharded := run(false)
	if !reflect.DeepEqual(globalStats, sharded) {
		t.Fatalf("sharded run diverges from global event loop:\nglobal:  %+v\nsharded: %+v", globalStats, sharded)
	}
}

// TestNonPortableFallsBackToGlobal: a program that reaches external memory
// couples rows, so Run must refuse to shard and use the global loop.
func TestNonPortableFallsBackToGlobal(t *testing.T) {
	p := prog("ext",
		opInstr(isa.DMASTORE, 0, int64(isa.PortLeft), 100, int64(isa.PortExt), 4, 0),
	)
	m := NewMachine(rowChip(2), arch.Single, false)
	m.SetExtMem(1024)
	loadRows(t, m, p)
	if m.canShard() {
		t.Fatal("non-portable program classified shardable")
	}
	st := mustRun(t, m)
	if st.ExtMemBytes == 0 {
		t.Fatal("external traffic missing from fallback run")
	}
}

// TestTileWorkersDeadlockDeterministic: a deadlocked run must report the
// same cycle and blocked set at every tile-worker count.
func TestTileWorkersDeadlockDeterministic(t *testing.T) {
	prev := par.SetWorkers(8)
	defer par.SetWorkers(prev)
	// Tracked range on PortLeft expects one update that never arrives, so
	// the VECMUL read blocks forever on every row.
	p := prog("stuck",
		opInstrAt(8, isa.MEMTRACK, int64(isa.PortLeft), 0, 8, 1, 1),
		opInstrAt(16, isa.VECMUL, 40, int64(isa.PortLeft), 0, int64(isa.PortLeft), 2, 20, int64(isa.PortLeft), 2),
	)
	run := func(workers int) string {
		m := NewMachine(rowChip(3), arch.Single, false)
		m.SetTileWorkers(workers)
		loadRows(t, m, p)
		_, err := m.Run()
		if err == nil {
			t.Fatalf("workers=%d: expected deadlock", workers)
		}
		if _, ok := err.(*DeadlockError); !ok {
			t.Fatalf("workers=%d: got %T, want *DeadlockError", workers, err)
		}
		return err.Error()
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); got != base {
			t.Fatalf("deadlock report at tile-workers=%d diverges:\nserial: %s\nw=%d: %s", w, base, w, got)
		}
	}
}

// TestResetNoLeakAcrossTileWorkers is the pooled-machine property: after
// tiles ran spread over many workers, Reset must scrub every per-tile and
// per-shard remnant, so a rerun on the pooled machine equals a fresh
// machine's run — even at a different tile-worker count.
func TestResetNoLeakAcrossTileWorkers(t *testing.T) {
	prev := par.SetWorkers(8)
	defer par.SetWorkers(prev)
	fresh := NewMachine(rowChip(4), arch.Single, true)
	fresh.SetTileWorkers(2)
	loadStaggeredRows(t, fresh)
	want := mustRun(t, fresh)

	pooled := NewMachine(rowChip(4), arch.Single, true)
	pooled.SetTileWorkers(8)
	loadRows(t, pooled, portableRowProgram())
	pooled.WriteMem(pooled.MemTileIndex(2, 1), 50, []float32{9, 9, 9})
	mustRun(t, pooled)

	pooled.Reset()
	pooled.SetTileWorkers(2)
	loadStaggeredRows(t, pooled)
	got := mustRun(t, pooled)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("pooled machine diverges from fresh after Reset:\nfresh:  %+v\npooled: %+v", want, got)
	}
	for i := range fresh.mem {
		if !reflect.DeepEqual(fresh.ReadMem(i, 0, 64), pooled.ReadMem(i, 0, 64)) {
			t.Fatalf("mem tile %d contents diverge after Reset rerun", i)
		}
	}
}

// TestMemoUnderTileWorkers: replica memoization and tile partitioning
// compose — the memoized sharded run still exactly matches a full
// simulation, at every worker count.
func TestMemoUnderTileWorkers(t *testing.T) {
	prev := par.SetWorkers(8)
	defer par.SetWorkers(prev)
	p := portableRowProgram()
	run := func(workers int, memo bool) Stats {
		m := NewMachine(rowChip(4), arch.Single, false)
		m.SetTileWorkers(workers)
		m.SetMemo(memo)
		loadRows(t, m, p)
		return mustRun(t, m)
	}
	full := run(1, false)
	for _, w := range []int{1, 2, 8} {
		memo := run(w, true)
		if memo.MemoTiles == 0 {
			t.Fatalf("workers=%d: memo did not engage", w)
		}
		if !reflect.DeepEqual(normalizeMemo(full), normalizeMemo(memo)) {
			t.Fatalf("workers=%d: memoized stats diverge from full run:\nfull: %+v\nmemo: %+v", w, full, memo)
		}
	}
}
