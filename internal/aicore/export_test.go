package aicore

import "unsafe"

// FlatOps returns the number of primitive ops in a flattened program.
func FlatOps(fp *FlatProgram) int { return len(fp.ops) }

// FlatGathers returns the number of fGather ops in a flattened program.
func FlatGathers(fp *FlatProgram) int {
	n := 0
	for _, op := range fp.ops {
		if op.kind == fGather {
			n++
		}
	}
	return n
}

// FlatOpBytes is the in-memory size of one flattened op.
const FlatOpBytes = unsafe.Sizeof(flatOp{})
