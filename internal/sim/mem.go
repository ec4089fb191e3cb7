package sim

import (
	"fmt"

	"scaledeep/internal/isa"
)

// memTile models one MemHeavy tile (§3.1.2): a scratchpad holding features,
// weights, errors and gradients; an SFU array executing offloaded
// high-Bytes/FLOP operations; a DMA engine; and hardware data-flow trackers.
type memTile struct {
	index int
	row   int
	mcol  int // MemHeavy column (0..Cols)

	data     []float32 // nil in timing-only mode
	capacity int64     // elements

	trackers   []*tracker
	queueDepth int

	sfuBusy Cycle
	dmaBusy Cycle

	// activity statistics
	sfuCycles  Cycle
	bytesMoved int64
	peakAddr   int64 // high-water mark of touched addresses
}

func (m *memTile) name() string { return fmt.Sprintf("mem[r%d,c%d]", m.row, m.mcol) }

// findTracker returns the armed tracker overlapping [addr, addr+size), if
// any. Compiled code arms at most one tracker per range; overlapping
// distinct trackers are a compiler bug and panic at arm time.
func (m *memTile) findTracker(addr, size int64) *tracker {
	for _, t := range m.trackers {
		if t.overlaps(addr, size) {
			return t
		}
	}
	return nil
}

// arm installs a tracker; idempotent for an identical range (re-arming by
// the MEMTRACK instruction after a manifest pre-arm is a no-op).
func (m *memTile) arm(addr, size int64, numUpdates, numReads int, preloaded bool) {
	if ex := m.findTracker(addr, size); ex != nil {
		if ex.addr == addr && ex.size == size {
			return
		}
		panic(fmt.Sprintf("sim: %s: tracker [%d+%d) overlaps existing [%d+%d)",
			m.name(), addr, size, ex.addr, ex.size))
	}
	t := &tracker{addr: addr, size: size, numUpdates: numUpdates, numReads: numReads}
	if preloaded {
		t.updatesSeen = numUpdates
	}
	m.trackers = append(m.trackers, t)
}

func (m *memTile) touch(addr, size int64) {
	if addr+size > m.peakAddr {
		m.peakAddr = addr + size
	}
	if addr < 0 || addr+size > m.capacity {
		panic(fmt.Sprintf("sim: %s: access [%d+%d) exceeds capacity %d", m.name(), addr, size, m.capacity))
	}
}

// extMem models a chip's external memory channels: a flat element-addressed
// store with untracked access (the harness pre-loads inputs, golden outputs
// and off-chip weights here). Its extent is set exactly by the compiler's
// layout (Machine.SetExtMem); an access outside it is a simulator fault.
type extMem struct {
	data   []float32 // len == extent in functional mode; nil in timing-only mode
	extent int64     // elements
	busy   Cycle
	bytes  int64
}

func (e *extMem) touch(addr, size int64) {
	if addr < 0 || addr+size > e.extent {
		panic(fmt.Sprintf("sim: extmem: access [%d+%d) exceeds extent %d", addr, size, e.extent))
	}
}

func (e *extMem) read(addr, size int64) []float32 {
	e.touch(addr, size)
	if e.data == nil {
		return nil
	}
	return e.data[addr : addr+size]
}

func (e *extMem) write(addr int64, vals []float32, acc bool) {
	e.touch(addr, int64(len(vals)))
	if e.data == nil {
		return
	}
	if acc {
		for i, v := range vals {
			e.data[addr+int64(i)] += v
		}
	} else {
		copy(e.data[addr:], vals)
	}
}

// location resolves a (port, issuing tile) pair to a concrete memory.
type location struct {
	mem *memTile // nil → external memory
	ext *extMem
}

func (l location) name() string {
	if l.mem != nil {
		return l.mem.name()
	}
	return "extmem"
}

// resolvePort maps an ABI port value to a location, from the perspective of
// CompHeavy tile ct.
func (m *Machine) resolvePort(ct *compTile, port int64) location {
	if idx, ok := isa.IsAbsTile(port); ok {
		if idx < 0 || idx >= len(m.mem) {
			panic(fmt.Sprintf("sim: absolute tile %d out of range", idx))
		}
		return location{mem: m.mem[idx]}
	}
	switch port {
	case isa.PortLeft:
		return location{mem: m.mem[m.memIndex(ct.row, ct.ccol)]}
	case isa.PortRight:
		return location{mem: m.mem[m.memIndex(ct.row, ct.ccol+1)]}
	case isa.PortExt:
		return location{ext: m.ext}
	default:
		panic(fmt.Sprintf("sim: bad port value %d", port))
	}
}

// access describes one read or write a coarse operation performs against a
// location, for tracker arbitration and traffic accounting.
type access struct {
	loc   location
	addr  int64
	size  int64
	write bool
}

// blockedOn returns the first tracker that forbids the access, or nil.
func (a access) blockedOn() *tracker {
	if a.loc.mem == nil {
		return nil // external memory is untracked
	}
	t := a.loc.mem.findTracker(a.addr, a.size)
	if t == nil {
		return nil
	}
	if a.write && !t.canWrite() {
		return t
	}
	if !a.write && !t.canRead() {
		return t
	}
	return nil
}

// note records the completed access on its tracker (if any) and returns the
// tracker so the machine can wake its waiters.
func (a access) note() *tracker {
	if a.loc.mem == nil {
		return nil
	}
	t := a.loc.mem.findTracker(a.addr, a.size)
	if t == nil {
		return nil
	}
	if a.write {
		t.noteWrite()
	} else {
		t.noteRead()
	}
	return t
}
