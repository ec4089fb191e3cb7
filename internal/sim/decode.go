package sim

import (
	"fmt"

	"scaledeep/internal/isa"
)

// This file is the predecode layer of the interpreter: LoadProgram decodes
// each program once into a flat dinstr array — opcode dispatch resolved to a
// function pointer, the attribution bucket and mnemonic precomputed — so the
// per-issue path in interp.go does no map lookups, no switch on every coarse
// issue, and no per-instruction allocation.

// coarseFn executes one non-scalar instruction with resolved operand values.
// It returns (false, _) if the tile blocked, else (true, completionCycle).
type coarseFn func(m *Machine, ct *compTile, v []int64) (bool, Cycle)

// coarseDispatch maps non-scalar opcodes to their implementations. Built
// once at init; the zero entries (scalar opcodes) are never called.
var coarseDispatch [isa.NumOpcodes]coarseFn

func init() {
	coarseDispatch[isa.NDCONV] = (*Machine).execNDConv
	coarseDispatch[isa.MATMUL] = (*Machine).execMatMul
	coarseDispatch[isa.NDACTFN] = (*Machine).execActFn
	coarseDispatch[isa.NDSUBSAMP] = (*Machine).execSubsamp
	coarseDispatch[isa.NDUPSAMP] = (*Machine).execUpsamp
	coarseDispatch[isa.NDACC] = (*Machine).execAcc
	coarseDispatch[isa.VECMUL] = (*Machine).execVecMul
	coarseDispatch[isa.WUPDATE] = (*Machine).execWUpdate
	coarseDispatch[isa.MEMSET] = (*Machine).execMemSet
	coarseDispatch[isa.DMALOAD] = (*Machine).execDMA
	coarseDispatch[isa.DMASTORE] = (*Machine).execDMA
	coarseDispatch[isa.PASSBUFF] = (*Machine).execPassBuff
	coarseDispatch[isa.MEMTRACK] = (*Machine).execMemTrack
	coarseDispatch[isa.DMAMEMTRACK] = (*Machine).execMemTrack
}

// dinstr is one predecoded instruction.
type dinstr struct {
	op     isa.Opcode
	scalar bool
	exec   coarseFn   // nil for scalar instructions
	busy   AttrBucket // opBusyBucket(op), precomputed
	name   string     // mnemonic (static string, no per-issue formatting)

	dst, src1, src2 isa.Reg
	imm             int32
	args            []isa.Reg
}

// decodedProg is the predecoded form of one isa.Program.
type decodedProg struct {
	ins []dinstr
}

// decodeProgram predecodes p. The caller has already validated it.
func decodeProgram(p *isa.Program) *decodedProg {
	d := &decodedProg{ins: make([]dinstr, len(p.Instrs))}
	for i, ins := range p.Instrs {
		di := &d.ins[i]
		di.op = ins.Op
		di.scalar = ins.Op.Group() == isa.GroupScalar
		di.busy = opBusyBucket(ins.Op)
		di.name = ins.Op.String()
		di.dst, di.src1, di.src2 = ins.Dst, ins.Src1, ins.Src2
		di.imm = ins.Imm
		di.args = ins.Args
		if !di.scalar {
			di.exec = coarseDispatch[ins.Op]
			if di.exec == nil {
				panic(fmt.Sprintf("sim: unhandled op %v", ins.Op))
			}
		}
	}
	return d
}
