package sim

import (
	"fmt"

	"scaledeep/internal/isa"
)

// maxInstructions bounds executed instructions per tile per Run as a runaway
// guard (a program with a broken loop otherwise hangs the simulation).
const maxInstructions = 1 << 30

// runTile resumes one CompHeavy tile: scalar instructions execute inline;
// each coarse/offload/transfer operation either blocks on a tracker
// (suspending the tile until woken) or completes, advancing the tile's local
// clock and rescheduling it, so tiles interleave in simulated-time order.
// The loop works entirely on the predecoded program (see decode.go) and the
// machine's reusable scratch buffers: steady-state execution allocates
// nothing.
func (m *Machine) runTile(ct *compTile) {
	ct.blocked, ct.blockTk = "", nil
	if m.instrProfile && ct.pcProf == nil {
		n := len(ct.dec.ins)
		ct.pcProf = &instrProf{
			attr:  make([]CycleAttribution, n),
			flops: make([]int64, n),
			bytes: make([]int64, n),
		}
	}
	code := ct.dec.ins
	for {
		if ct.pc >= len(code) {
			m.halt(ct)
			return
		}
		ins := &code[ct.pc]
		ct.instrs++
		if ct.instrs > maxInstructions {
			panic("sim: instruction budget exhausted (runaway program?)")
		}
		if ins.scalar {
			ct.scalarCycles++
			ct.time++
			m.account(ct, AttrCompute, 1)
			if done := m.execScalar(ct, ins); done {
				return
			}
			// Yield when another tile has an earlier pending event, so tiles
			// interleave in simulated-time order (keeps tracker arbitration
			// causally faithful even through long scalar stretches).
			if ct.scalarCycles%32 == 0 {
				if at, ok := m.eng.peekTime(); ok && at < ct.time {
					m.eng.schedule(ct.index, ct.time)
					return
				}
			}
			continue
		}
		// Non-scalar: resolve operands into the reusable scratch buffer and
		// attempt the operation.
		v := m.argBuf[:len(ins.args)]
		for i, a := range ins.args {
			v[i] = ct.regs[a]
		}
		start := ct.time
		flops0 := ct.flops
		m.opQueueWait, m.opBytes = 0, 0
		if m.Functional {
			m.arena.reset()
		}
		ok, end := ins.exec(m, ct, v)
		if !ok {
			return // blocked; tracker wake or NACK retry will reschedule
		}
		m.traceOp(ct, ins, start, end)
		// Attribute the op's span: the leading queue-for-busy-resource part
		// is contention, the remainder is the operation itself (compute for
		// array/SFU work, dma-wait for transfers).
		total := end - start
		wait := m.opQueueWait
		if wait > total {
			wait = total
		}
		m.account(ct, AttrLinkContend, wait)
		m.account(ct, ins.busy, total-wait)
		if p := ct.pcProf; p != nil && ct.pc < len(p.flops) {
			p.flops[ct.pc] += ct.flops - flops0
			p.bytes[ct.pc] += m.opBytes
		}
		ct.nackRetries = 0
		ct.pc++
		ct.time = end
		m.eng.schedule(ct.index, end)
		return
	}
}

// opBusyBucket classifies a coarse op's occupied span: transfers are
// dma-wait, everything else (array, SFU offload, tracker arming) is compute.
func opBusyBucket(op isa.Opcode) AttrBucket {
	switch op {
	case isa.DMALOAD, isa.DMASTORE, isa.PASSBUFF:
		return AttrDMAWait
	default:
		return AttrCompute
	}
}

func (m *Machine) halt(ct *compTile) {
	ct.halted = true
	m.finished++
	if ct.time > m.stats.Cycles {
		m.stats.Cycles = ct.time
	}
}

// execScalar executes one scalar-control instruction. It returns true when
// the tile halted.
func (m *Machine) execScalar(ct *compTile, ins *dinstr) bool {
	r := &ct.regs
	switch ins.op {
	case isa.LDRI:
		r[ins.dst] = int64(ins.imm)
	case isa.MOVR:
		r[ins.dst] = r[ins.src1]
	case isa.ADDR:
		r[ins.dst] = r[ins.src1] + r[ins.src2]
	case isa.ADDRI:
		r[ins.dst] = r[ins.src1] + int64(ins.imm)
	case isa.SUBR:
		r[ins.dst] = r[ins.src1] - r[ins.src2]
	case isa.SUBRI:
		r[ins.dst] = r[ins.src1] - int64(ins.imm)
	case isa.MULRI:
		r[ins.dst] = r[ins.src1] * int64(ins.imm)
	case isa.CMPLT:
		if r[ins.src1] < r[ins.src2] {
			r[ins.dst] = 1
		} else {
			r[ins.dst] = 0
		}
	case isa.BEQZ:
		if r[ins.src1] == 0 {
			ct.pc += int(ins.imm)
		}
	case isa.BNEZ:
		if r[ins.src1] != 0 {
			ct.pc += int(ins.imm)
		}
	case isa.BGTZ:
		if r[ins.src1] > 0 {
			ct.pc += int(ins.imm)
		}
	case isa.BRANCH:
		ct.pc += int(ins.imm)
	case isa.NOP:
	case isa.HALT:
		m.halt(ct)
		return true
	default:
		panic(fmt.Sprintf("sim: unhandled scalar op %v", ins.op))
	}
	ct.pc++
	return false
}

// admit checks every access against its tracker. If any is blocked, the tile
// suspends on that tracker and admit returns false. Otherwise all accesses
// are noted (counted) and their trackers' waiters woken at `end`.
func (m *Machine) admit(ct *compTile, accs []access, desc string, end Cycle) bool {
	for _, a := range accs {
		if t := a.blockedOn(); t != nil {
			m.block(ct, t, a.write, desc)
			return false
		}
	}
	for _, a := range accs {
		if t := a.note(); t != nil {
			m.wake(t, end)
		}
		// Traffic accounting.
		bytes := a.size * m.elemBytes
		if a.loc.mem != nil {
			a.loc.mem.bytesMoved += bytes
			a.loc.mem.touch(a.addr, a.size)
		} else {
			a.loc.ext.bytes += bytes
			a.loc.ext.touch(a.addr, a.size)
		}
	}
	return true
}

// execMemTrack arms a tracker (idempotent after a manifest pre-arm).
func (m *Machine) execMemTrack(ct *compTile, v []int64) (bool, Cycle) {
	loc := m.resolvePort(ct, v[0])
	if loc.mem == nil {
		panic("sim: MEMTRACK on external memory")
	}
	loc.mem.arm(v[1], v[2], int(v[3]), int(v[4]), false)
	return true, ct.time + 1
}
