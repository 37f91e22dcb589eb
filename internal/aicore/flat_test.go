package aicore_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/fp16"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/lint"
	"davinci/internal/ops"
	"davinci/internal/workloads"
)

// entropyCore returns a default core whose every buffer, global memory
// grown to cover prog's footprint, holds full-entropy bytes, the same for
// the same seed.
func entropyCore(prog *cce.Program, seed int64) *aicore.Core {
	c := aicore.New(buffer.Config{}, nil)
	foot := 0
	for _, in := range prog.Instrs {
		for _, r := range append(in.Reads(), in.Writes()...) {
			if r.Buf == isa.GM && r.End > foot {
				foot = r.End
			}
		}
	}
	c.Mem.Space(isa.GM).MustAlloc(foot)
	rng := rand.New(rand.NewSource(seed))
	for id := isa.BufID(0); id < isa.NumBufs; id++ {
		rng.Read(c.Mem.Mem(id))
	}
	return c
}

// TestFlatMatchesInterpreterEveryKernel: for every catalogue kernel on the
// three Fig. 7 layers and the k2s2 VGG16 28x28 layer, the plan's program
// run through the interpreter on one core and through its flattened trace
// on another, both starting from the same full-entropy bytes in every
// buffer, leaves identical bytes in every buffer. Random bits reach NaN,
// infinity and subnormal operands, which kernel inputs drawn from small
// integers never do. The reduction chains fold at 9 steps on the k3s2
// layers and at 4 on the k2s2 one.
func TestFlatMatchesInterpreterEveryKernel(t *testing.T) {
	checked := 0
	layers := workloads.InceptionV3Fig7()
	for _, l := range workloads.TableI {
		if l.Network == "VGG16" && l.H == 28 {
			layers = append(layers, l)
		}
	}
	for _, layer := range layers {
		p := layer.Params()
		for _, kc := range kernelcases.All() {
			pl, err := kc.Plan(ops.Spec{}, p)
			if err != nil {
				if kernelcases.IsCapacitySkip(err) {
					continue
				}
				t.Fatalf("%s %dx%d: compile: %v", kc.Name, layer.H, layer.W, err)
			}
			name := fmt.Sprintf("%s %dx%d", kc.Name, layer.H, layer.W)
			seed := int64(layer.H*100 + checked)
			interp, flat := entropyCore(pl.Prog, seed), entropyCore(pl.Prog, seed)
			if err := interp.Interpret(pl.Prog); err != nil {
				t.Fatalf("%s: interpreted: %v", name, err)
			}
			if err := flat.ExecFlat(aicore.Flatten(pl.Prog)); err != nil {
				t.Fatalf("%s: flattened: %v", name, err)
			}
			for id := isa.BufID(0); id < isa.NumBufs; id++ {
				if !bytes.Equal(interp.Mem.Mem(id), flat.Mem.Mem(id)) {
					t.Errorf("%s: %v contents differ", name, id)
				}
			}
			checked++
		}
	}
	t.Logf("flattened traces matched the interpreter on %d kernel x layer programs", checked)
}

// TestFlatGatherFusion pins the flat-trace fusions on one 147x147 im2col
// maxpool tile: it flattens to at most 1,000 ops (48,125 as one move per
// Im2Col row) with every vmax folded into a reduction chain, and the op
// itself must not grow, since every plan is flattened on its first run.
func TestFlatGatherFusion(t *testing.T) {
	p := isa.ConvParams{Ih: 147, Iw: 147, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	pl, err := ops.Compile("maxpool_fwd/im2col", ops.Spec{}, ops.Dims{P: p})
	if err != nil {
		t.Fatal(err)
	}
	fp := aicore.Flatten(pl.Prog)
	if n := aicore.FlatOps(fp); n > 1000 {
		t.Errorf("maxpool_fwd/im2col 147x147 flattens to %d ops, want <= 1000", n)
	}
	if aicore.FlatGathers(fp) == 0 {
		t.Error("no gather ops emitted")
	}
	if n := aicore.FlatVecOps(fp, isa.VMax); n != 0 || aicore.FlatFolds(fp) == 0 {
		t.Errorf("maxpool_fwd/im2col leaves %d vmax ops unfused (%d folds)", n, aicore.FlatFolds(fp))
	}
	if aicore.FlatOpBytes > 104 {
		t.Errorf("flatOp is %d bytes, want <= 104", aicore.FlatOpBytes)
	}
}

// TestFlatFoldsEveryForwardChain pins the reduction-chain folds of the
// four forward pooling kernels: at every Table I layer no vmax or vadd op
// is left unfused, and at 147x147 the standard lowering's per-pixel
// chains bring each standard kernel to at most 5,400 ops, while
// maxpool_fwd/im2col keeps its 812 ops, every fold a dup-led chain at a
// constant stride (fp16.MaxFold's loop).
func TestFlatFoldsEveryForwardChain(t *testing.T) {
	for _, l := range workloads.TableI {
		for _, kernel := range []string{"maxpool_fwd/standard", "avgpool_fwd/standard", "maxpool_fwd/im2col", "avgpool_fwd/im2col"} {
			pl, err := ops.Compile(kernel, ops.Spec{}, ops.Dims{P: l.Params()})
			if err != nil {
				t.Fatal(err)
			}
			fp := aicore.Flatten(pl.Prog)
			name := fmt.Sprintf("%s %dx%d k%ds%d", kernel, l.H, l.W, l.Kernel, l.Stride)
			if n := aicore.FlatVecOps(fp, isa.VMax) + aicore.FlatVecOps(fp, isa.VAdd); n != 0 || aicore.FlatFolds(fp) == 0 {
				t.Errorf("%s: %d vmax or vadd ops left unfused (%d folds)", name, n, aicore.FlatFolds(fp))
			}
			if l.H != 147 {
				continue
			}
			n := aicore.FlatOps(fp)
			switch kernel {
			case "maxpool_fwd/standard", "avgpool_fwd/standard":
				if n > 5400 {
					t.Errorf("%s flattens to %d ops, want <= 5400", name, n)
				}
			case "maxpool_fwd/im2col":
				if n != 812 || aicore.FlatStrideMaxFolds(fp) != aicore.FlatFolds(fp) {
					t.Errorf("%s flattens to %d ops, %d of %d folds dup-led at a stride; want 812, all",
						name, n, aicore.FlatStrideMaxFolds(fp), aicore.FlatFolds(fp))
				}
			}
		}
	}
}

// reduceChain builds a reduction chain over one 128-lane repeat at UB
// offset 0: a vector_dup of -Inf when dup is set, then one op
// dst = op(src, dst) per source offset.
func reduceChain(name string, op isa.VecOp, dup bool, srcs ...int) *cce.Program {
	prog := cce.New(name)
	dst := isa.Contig(isa.UB, 0)
	if dup {
		prog.EmitVec(isa.VDup, dst, isa.Operand{}, isa.Operand{}, fp16.NegativeInfinity, isa.FullMask(), 1)
	}
	for _, src := range srcs {
		prog.EmitVec(op, dst, isa.Contig(isa.UB, src), dst, 0, isa.FullMask(), 1)
	}
	return prog
}

// runUB runs exec on a core with a UB of ub bytes holding small integers
// of both signs, and returns the UB and exec's error.
func runUB(ub int, exec func(*aicore.Core) error) ([]byte, error) {
	c := aicore.New(buffer.Config{UBSize: ub}, nil)
	m := c.Mem.Mem(isa.UB)
	for i := 0; i < len(m); i += fp16.Bytes {
		fp16.Store(m, i, fp16.FromFloat64(float64(i%97)-48))
	}
	err := exec(c)
	return m, err
}

// TestFlatFoldSkipsOverlap: a chain folds into one op when its sources
// lie apart from the destination. A step whose source overlaps the
// destination stays unfused; the dup and the step before it fold, and so
// do the two steps after it, from the destination's own values. Each
// trace runs to the interpreter's bytes.
func TestFlatFoldSkipsOverlap(t *testing.T) {
	for _, tc := range []struct {
		name                string
		srcs                []int
		ops, folds, unfused int
	}{
		{"apart", []int{1024, 1536, 2048}, 1, 1, 0},
		{"overlap", []int{1024, 128, 1536, 2048}, 3, 2, 1},
	} {
		prog := reduceChain(tc.name, isa.VMax, true, tc.srcs...)
		fp := aicore.Flatten(prog)
		if aicore.FlatOps(fp) != tc.ops || aicore.FlatFolds(fp) != tc.folds || aicore.FlatVecOps(fp, isa.VMax) != tc.unfused {
			t.Errorf("%s chain: %d ops, %d folds, %d unfused vmax ops, want %d, %d, %d", tc.name,
				aicore.FlatOps(fp), aicore.FlatFolds(fp), aicore.FlatVecOps(fp, isa.VMax), tc.ops, tc.folds, tc.unfused)
		}
		ubI, errI := runUB(8192, func(c *aicore.Core) error { return c.Interpret(prog) })
		ubF, errF := runUB(8192, func(c *aicore.Core) error { return c.ExecFlat(fp) })
		if errI != nil || errF != nil || !bytes.Equal(ubI, ubF) {
			t.Errorf("%s chain: interpreted (%v) and flattened (%v) runs differ", tc.name, errI, errF)
		}
	}
}

// TestFlatReduceOverrun: a reduction chain whose last source overruns its
// buffer flattens to one fold, which fails the way the interpreter does:
// the error names the overrunning step, and the dup and the earlier steps
// have left the same bytes behind. It holds for a vmax and a vadd chain
// led by a dup, and for a chain with no dup.
func TestFlatReduceOverrun(t *testing.T) {
	const ub = 4096
	srcs := []int{1024, 2560, 4096} // the last source is [4096, 4352)
	for _, tc := range []struct {
		name string
		op   isa.VecOp
		dup  bool
		last string // the overrunning instruction
	}{
		{"vmax", isa.VMax, true, "instr 3 "},
		{"vadd", isa.VAdd, true, "instr 3 "},
		{"nodup", isa.VMax, false, "instr 2 "},
	} {
		prog := reduceChain(tc.name, tc.op, tc.dup, srcs...)
		fp := aicore.Flatten(prog)
		if aicore.FlatOps(fp) != 1 || aicore.FlatFolds(fp) != 1 {
			t.Fatalf("%s: want one fold op, got %d ops (%d folds)", tc.name, aicore.FlatOps(fp), aicore.FlatFolds(fp))
		}
		ubI, errI := runUB(ub, func(c *aicore.Core) error { return c.Interpret(prog) })
		ubF, errF := runUB(ub, func(c *aicore.Core) error { return c.ExecFlat(fp) })
		if errI == nil || errF == nil {
			t.Fatalf("%s: want both paths to fail: interpreted %v, flattened %v", tc.name, errI, errF)
		}
		for _, err := range []error{errI, errF} {
			if !strings.Contains(err.Error(), tc.name+" "+tc.last) || !strings.Contains(err.Error(), "exceeds") {
				t.Errorf("%s: error %q does not name the overrunning step", tc.name, err)
			}
		}
		if !bytes.Equal(ubI, ubF) {
			t.Errorf("%s: the failing fold left different bytes than the interpreter", tc.name)
		}
	}
}

// TestFlatGatherOverrun: a strided copy whose last burst overruns its
// destination flattens to one gather, which fails the way the
// interpreter does — an error naming the instruction, before any row
// moves.
func TestFlatGatherOverrun(t *testing.T) {
	const ub = 4096
	prog := cce.New("overrun")
	prog.Emit(&isa.CopyInstr{
		SrcBuf: isa.GM, SrcAddr: 0, DstBuf: isa.UB, DstAddr: ub - 3*64,
		NBurst: 4, BurstBytes: 32, SrcGap: 32, DstGap: 32,
	})
	fp := aicore.Flatten(prog)
	if aicore.FlatOps(fp) != 1 || aicore.FlatGathers(fp) != 1 {
		t.Fatalf("want one gather op, got %d ops (%d gathers)", aicore.FlatOps(fp), aicore.FlatGathers(fp))
	}
	run := func(exec func(*aicore.Core) error) ([]byte, error) {
		c := aicore.New(buffer.Config{UBSize: ub}, nil)
		for i := range c.Mem.Mem(isa.GM)[:256] {
			c.Mem.Mem(isa.GM)[i] = byte(i + 1)
		}
		err := exec(c)
		return c.Mem.Mem(isa.UB), err
	}
	ubI, errI := run(func(c *aicore.Core) error { return c.Interpret(prog) })
	ubF, errF := run(func(c *aicore.Core) error { return c.ExecFlat(fp) })
	if errI == nil || errF == nil {
		t.Fatalf("want both paths to fail: interpreted %v, flattened %v", errI, errF)
	}
	for _, err := range []error{errI, errF} {
		if !strings.Contains(err.Error(), "overrun instr 0 ") || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("error %q does not name the overrunning instruction", err)
		}
	}
	if !bytes.Equal(ubI, ubF) || bytes.Count(ubF, []byte{0}) != ub {
		t.Error("a failing gather moved rows; the interpreter moves none")
	}
}

// TestMaskedVecBoundsAgree: lint, the interpreter and the flattened trace
// bound a vector operand by its highest enabled block. A 16-lane vadd on
// the last 32-byte block of UB passes lint and runs to identical bytes
// interpreted or flat; the same op at full mask overruns UB and fails in
// all three, each naming instruction 0.
func TestMaskedVecBoundsAgree(t *testing.T) {
	const ub = 4096
	vadd := func(m isa.Mask) *cce.Program {
		prog := cce.New("tail")
		prog.EmitVec(isa.VAdd, isa.Contig(isa.UB, ub-isa.BlockBytes), isa.Contig(isa.UB, 0), isa.Contig(isa.UB, 256), 0, m, 1)
		return prog
	}
	run := func(prog *cce.Program, exec func(*aicore.Core) error) ([]byte, error) {
		c := aicore.New(buffer.Config{UBSize: ub}, nil)
		m := c.Mem.Mem(isa.UB)
		for i := 0; i < len(m); i += fp16.Bytes {
			fp16.Store(m, i, fp16.FromFloat64(float64(i%89)-44))
		}
		err := exec(c)
		return m, err
	}
	caps := buffer.Config{UBSize: ub}.Capacities()
	for _, tc := range []struct {
		name string
		mask isa.Mask
		fail bool
	}{{"16 lanes", isa.MaskFirstN(16), false}, {"full mask", isa.FullMask(), true}} {
		prog := vadd(tc.mask)
		errs := lint.Errors(lint.CheckWith(lint.Options{Caps: caps, Mode: lint.SyncImplicit}, prog))
		fp := aicore.Flatten(prog)
		ubI, errI := run(prog, func(c *aicore.Core) error { return c.Interpret(prog) })
		ubF, errF := run(prog, func(c *aicore.Core) error { return c.ExecFlat(fp) })
		if !tc.fail {
			if len(errs) > 0 || errI != nil || errF != nil {
				t.Errorf("%s: want a clean run: lint %v, interpreted %v, flattened %v", tc.name, errs, errI, errF)
			}
			if !bytes.Equal(ubI, ubF) {
				t.Errorf("%s: interpreted and flattened runs leave different bytes", tc.name)
			}
			continue
		}
		if len(errs) == 0 || errs[0].Index != 0 || errs[0].Pass != "bounds" {
			t.Errorf("%s: lint errors %v, want a bounds error at instruction 0", tc.name, errs)
		}
		for _, err := range []error{errI, errF} {
			if err == nil || !strings.Contains(err.Error(), "tail instr 0 ") || !strings.Contains(err.Error(), "exceeds") {
				t.Errorf("%s: error %v does not name the overrunning instruction", tc.name, err)
			}
		}
	}
}

// TestFlatTraceStopsAtFailure: a traced run that fails at instruction i,
// through Run or ExecFlat, keeps the schedule entries of the instructions
// before i, entry for entry those a clean run of that prefix records.
func TestFlatTraceStopsAtFailure(t *testing.T) {
	const ub = 4096
	prog := cce.New("stops")
	prog.EmitVec(isa.VDup, isa.Contig(isa.UB, 0), isa.Operand{}, isa.Operand{}, fp16.One, isa.FullMask(), 1)
	prog.Emit(&isa.CopyInstr{SrcBuf: isa.UB, SrcAddr: 0, DstBuf: isa.GM, DstAddr: 0, NBurst: 1, BurstBytes: 256})
	prog.EmitVec(isa.VAdds, isa.Contig(isa.UB, ub-isa.BlockBytes), isa.Contig(isa.UB, 0), isa.Operand{}, fp16.One, isa.FullMask(), 1)
	prog.EmitVec(isa.VDup, isa.Contig(isa.UB, 512), isa.Operand{}, isa.Operand{}, fp16.One, isa.FullMask(), 1)
	traced := func() *aicore.Core {
		c := aicore.New(buffer.Config{UBSize: ub}, nil)
		c.Trace = &aicore.Trace{}
		return c
	}
	prefix := cce.New("stops")
	for _, in := range prog.Instrs[:2] {
		prefix.Emit(in)
	}
	want := traced()
	if _, err := want.Run(prefix); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(*aicore.Core) error{
		"Run":      func(c *aicore.Core) error { _, err := c.Run(prog); return err },
		"ExecFlat": func(c *aicore.Core) error { return c.ExecFlat(aicore.Flatten(prog)) },
	} {
		c := traced()
		if err := run(c); err == nil || !strings.Contains(err.Error(), "stops instr 2 ") {
			t.Fatalf("%s: error %v does not name instruction 2", name, err)
		}
		if len(want.Trace.Entries) != 2 || !slices.Equal(c.Trace.Entries, want.Trace.Entries) {
			t.Errorf("%s: trace entries %v, want the prefix's %v", name, c.Trace.Entries, want.Trace.Entries)
		}
	}
}
