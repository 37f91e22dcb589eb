package aicore_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"davinci/internal/aicore"
	"davinci/internal/buffer"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/kernelcases"
	"davinci/internal/ops"
	"davinci/internal/workloads"
)

// poisonedCore returns a core whose every buffer starts filled with 0xA5,
// so a replay that reads bytes it never wrote, or skips a write, shows.
func poisonedCore() *aicore.Core {
	c := aicore.New(buffer.Config{}, nil)
	for id := isa.BufID(0); id < isa.NumBufs; id++ {
		m := c.Mem.Mem(id)
		for i := range m {
			m[i] = 0xA5
		}
	}
	return c
}

// TestFlatMatchesInterpreterEveryKernel: for every built-in kernel on the
// three Fig. 7 layers, a plan's first Run (interpreted under the full
// scoreboard) and its second Run (the flattened trace with the memoized
// timing), each on a poisoned core, leave identical bytes in every buffer
// and return identical outputs and Stats.
func TestFlatMatchesInterpreterEveryKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked := 0
	for _, layer := range workloads.InceptionV3Fig7() {
		p := layer.Params()
		for _, kc := range kernelcases.All() {
			name := fmt.Sprintf("%s %dx%d", kc.Name, layer.H, layer.W)
			pl, err := kc.Plan(ops.Spec{}, p)
			if err != nil {
				if kernelcases.IsCapacitySkip(err) {
					continue
				}
				t.Fatalf("%s: compile: %v", name, err)
			}
			in := kc.Inputs(rng, p)
			interp, flat := poisonedCore(), poisonedCore()
			outsI, stI, err := pl.Run(interp, in...)
			if err != nil {
				t.Fatalf("%s: interpreted run: %v", name, err)
			}
			outsF, stF, err := pl.Run(flat, in...)
			if err != nil {
				t.Fatalf("%s: flattened run: %v", name, err)
			}
			if *stI != *stF {
				t.Errorf("%s: stats differ:\ninterpreted %v\nflattened   %v", name, stI, stF)
			}
			for i := range outsI {
				if !bytes.Equal(outsI[i].Data, outsF[i].Data) {
					t.Errorf("%s: output %d differs", name, i)
				}
			}
			for id := isa.BufID(0); id < isa.NumBufs; id++ {
				if !bytes.Equal(interp.Mem.Mem(id), flat.Mem.Mem(id)) {
					t.Errorf("%s: %v contents differ", name, id)
				}
			}
			checked++
		}
	}
	t.Logf("flattened replay matched the interpreter on %d kernel x layer programs", checked)
}

// TestFlatGatherFusion pins the gather fusion: one 147x147 im2col
// maxpool tile flattens to at most 1,000 ops (48,125 as one move per
// Im2Col row), and the op itself must not grow, since every plan is
// flattened on its first memoized replay.
func TestFlatGatherFusion(t *testing.T) {
	p := isa.ConvParams{Ih: 147, Iw: 147, Kh: 3, Kw: 3, Sh: 2, Sw: 2}
	pl, err := ops.PlanMaxPoolForward("im2col", ops.Spec{}, p)
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
	if aicore.FlatOpBytes > 104 {
		t.Errorf("flatOp is %d bytes, want <= 104", aicore.FlatOpBytes)
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
	ubI, errI := run(func(c *aicore.Core) error { return c.ExecOnly(prog) })
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
