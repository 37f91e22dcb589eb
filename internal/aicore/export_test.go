package aicore

import (
	"unsafe"

	"davinci/internal/isa"
)

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
