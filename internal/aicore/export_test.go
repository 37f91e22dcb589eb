package aicore

import (
	"fmt"
	"unsafe"

	"davinci/internal/cce"
	"davinci/internal/isa"
)

// Interpret executes prog on the interpreter (exec), instruction by
// instruction in program order: the oracle the flattened trace, which
// every run executes, is checked against. Its errors name the failing
// instruction the way Run's do.
func (c *Core) Interpret(prog *cce.Program) error {
	for idx, in := range prog.Instrs {
		if err := c.exec(in); err != nil {
			return fmt.Errorf("aicore: %s instr %d (%s): %w", prog.Name, idx, in, err)
		}
	}
	return nil
}

// FlatOps returns the number of primitive ops in a flattened program.
func FlatOps(fp *FlatProgram) int { return len(fp.ops) }

// FlatGathers returns the number of fGather ops in a flattened program.
func FlatGathers(fp *FlatProgram) int {
	return countOps(fp, func(op *flatOp) bool { return op.kind == fGather })
}

// FlatFolds returns the number of fFold ops in a flattened program.
func FlatFolds(fp *FlatProgram) int {
	return countOps(fp, func(op *flatOp) bool { return op.kind == fFold })
}

// FlatStrideMaxFolds returns the number of fFold ops that run
// fp16.MaxFold: dup-led vmax chains whose sources lie at a constant stride.
func FlatStrideMaxFolds(fp *FlatProgram) int {
	return countOps(fp, func(op *flatOp) bool {
		return op.kind == fFold && op.op == isa.VMax && op.dup && op.sStride >= 0
	})
}

// FlatVecOps returns the number of unfused fVec and fVecMasked ops
// applying v in a flattened program.
func FlatVecOps(fp *FlatProgram, v isa.VecOp) int {
	return countOps(fp, func(op *flatOp) bool { return (op.kind == fVec || op.kind == fVecMasked) && op.op == v })
}

func countOps(fp *FlatProgram, match func(*flatOp) bool) int {
	n := 0
	for i := range fp.ops {
		if match(&fp.ops[i]) {
			n++
		}
	}
	return n
}

// FlatOpBytes is the in-memory size of one flattened op.
const FlatOpBytes = unsafe.Sizeof(flatOp{})
