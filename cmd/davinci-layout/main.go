// Command davinci-layout visualizes the Im2Col transform the way Fig. 5 of
// the paper does: it prints the input patch grid and the fractals an
// Im2Col load sequence produces, labelling each row with its source
// coordinates (or PAD for zero-padding positions).
//
// With -mode program it prints a compiled kernel's instruction stream
// instead — the program the layout feeds — and with -opt N the stream
// after the static optimizer (internal/opt), alongside its
// translation-validated rewrite report.
//
// With -mode schedule it runs the schedule search (internal/sched) for
// the kernel named by -kernel and dumps the candidate frontier: every
// ScheduleParams the enumerator tried, its static makespan bounds, the
// oracle-confirmed cycles where the search paid for a simulation, and
// which candidate won.
//
// Example (the exact Fig. 5 configuration):
//
//	davinci-layout -h 8 -w 8 -k 2 -s 2
//	davinci-layout -h 8 -w 8 -k 2 -s 2 -mode program -opt 2
//	davinci-layout -h 112 -w 112 -k 3 -s 2 -mode schedule -kernel maxpool_fwd/standard
package main

import (
	"flag"
	"fmt"
	"os"

	"davinci/internal/isa"
	"davinci/internal/ops"
	"davinci/internal/opt"
	"davinci/internal/sched"
	"davinci/internal/scu"
)

func main() {
	h := flag.Int("h", 8, "input height")
	w := flag.Int("w", 8, "input width")
	k := flag.Int("k", 2, "kernel size")
	s := flag.Int("s", 2, "stride")
	pad := flag.Int("pad", 0, "zero padding on every side")
	maxFractals := flag.Int("fractals", 8, "maximum fractals to print")
	mode := flag.String("mode", "im2col", "im2col (Fig. 5 load map), col2im (Fig. 6 scatter map), program (compiled instruction stream) or schedule (autoscheduler candidate frontier)")
	variant := flag.String("variant", "im2col", "with -mode program: the maxpool-forward variant to compile")
	optLevel := flag.Int("opt", 0, "with -mode program: static optimizer level (0=off, 1=rewrites, 2=+rescheduling)")
	kernel := flag.String("kernel", "maxpool_fwd/standard", "with -mode schedule: the family/variant kernel to search")
	flag.Parse()

	p := isa.ConvParams{Ih: *h, Iw: *w, Kh: *k, Kw: *k, Sh: *s, Sw: *s, Pt: *pad, Pb: *pad, Pl: *pad, Pr: *pad}
	if err := p.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "davinci-layout: %v\n", err)
		os.Exit(1)
	}
	if *mode == "program" {
		if err := printProgram(p, *variant, opt.Level(*optLevel)); err != nil {
			fmt.Fprintf(os.Stderr, "davinci-layout: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *mode == "schedule" {
		if err := printSchedule(p, *kernel); err != nil {
			fmt.Fprintf(os.Stderr, "davinci-layout: %v\n", err)
			os.Exit(1)
		}
		return
	}
	oh, ow := p.OutDims()
	fmt.Printf("input (%d,%d)  kernel (%d,%d)  stride (%d,%d)  padding %d\n", *h, *w, *k, *k, *s, *s, *pad)
	fmt.Printf("patches: %dx%d = %d  -> %d fractals per (c1,xk,yk), %d rows zero tail\n\n",
		oh, ow, p.Patches(), p.Fractals(), p.PaddedPatches()-p.Patches())

	fmt.Println("patch grid (top-left input coordinate of each patch):")
	for i := 0; i < oh; i++ {
		for j := 0; j < ow; j++ {
			ph, pw := scu.PatchOrigin(p, i*ow+j)
			fmt.Printf("(%3d,%3d) ", ph, pw)
		}
		fmt.Println()
	}
	fmt.Println()

	if *mode == "col2im" {
		printCol2im(p, oh, ow)
		return
	}
	fmt.Printf("Im2Col load sequence, repeat mode 1, loop order [c1,(xk,yk),(x,y)] (§III-C):\n")
	printed := 0
	for xk := 0; xk < p.Kh && printed < *maxFractals; xk++ {
		for yk := 0; yk < p.Kw && printed < *maxFractals; yk++ {
			for f := 0; f < p.Fractals() && printed < *maxFractals; f++ {
				fmt.Printf("fractal %2d  (xk,yk)=(%d,%d) patches %d..%d:\n",
					printed, xk, yk, f*isa.FractalPatches, f*isa.FractalPatches+isa.FractalPatches-1)
				for row := 0; row < isa.FractalPatches; row++ {
					patch := f*isa.FractalPatches + row
					if patch >= p.Patches() {
						fmt.Printf("  row %2d: ZERO (fractal tail)\n", row)
						continue
					}
					sh, sw, isPad := scu.SourceCoord(p, patch, xk, yk)
					if isPad {
						fmt.Printf("  row %2d: patch %3d -> PAD (zero)\n", row, patch)
					} else {
						fmt.Printf("  row %2d: patch %3d -> in[%d,%d][0:%d]\n", row, patch, sh, sw, isa.FractalC0)
					}
				}
				printed++
			}
		}
	}
	if total := p.Kh * p.Kw * p.Fractals(); printed < total {
		fmt.Printf("... %d more fractals (raise -fractals to print them)\n", total-printed)
	}
}

// printProgram dumps a compiled maxpool-forward plan's instruction stream
// with per-instruction pipe assignments — the program the Fig. 5 layout
// feeds — plus the optimizer's rewrite report when a level is set.
func printProgram(p isa.ConvParams, variant string, level opt.Level) error {
	pl, err := ops.Compile("maxpool_fwd/"+variant, ops.Spec{Opt: level}, ops.Dims{P: p})
	if err != nil {
		return err
	}
	fmt.Printf("program %s: %d instructions\n", pl.Prog.Name, len(pl.Prog.Instrs))
	if r := pl.Opt; r != nil {
		fmt.Printf("optimizer: %s\n", r.Summary())
		for _, rw := range r.Rewrites {
			fmt.Printf("  %s\n", rw)
		}
	}
	fmt.Println()
	for i, in := range pl.Prog.Instrs {
		fmt.Printf("%4d  %-6s %s\n", i, in.Pipe(), in)
	}
	return nil
}

// printSchedule runs the autoscheduler for one kernel and dumps the
// candidate frontier: the hand-tuned default first, then every valid
// candidate by ascending critical path, then the candidates the
// enumerator proposed but the lowering rejected as outside the kernel's
// schedule space.
func printSchedule(p isa.ConvParams, kernel string) error {
	res, err := sched.Search(kernel, ops.Spec{}, p, sched.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("schedule frontier for %s on input (%d,%d) kernel (%d,%d) stride (%d,%d):\n",
		res.Kernel, p.Ih, p.Iw, p.Kh, p.Kw, p.Sh, p.Sw)
	fmt.Printf("%s\n\n", res.Report.Summary())
	fmt.Printf("%-44s %10s %10s %10s  %s\n", "schedule", "critpath", "busybound", "cycles", "status")
	for _, c := range res.Candidates {
		if c.Invalid != "" {
			fmt.Printf("%-44s %10s %10s %10s  rejected: %s\n", c.Params, "-", "-", "-", c.Invalid)
			continue
		}
		status := "bounded"
		switch {
		case res.Report.Accepted && c.Resolved == res.Report.Params:
			status = "ACCEPTED"
		case c.Default:
			status = "default"
		case c.Confirmed:
			status = "confirmed"
		}
		cycles := "-"
		if c.Confirmed {
			cycles = fmt.Sprintf("%d", c.Cycles)
		}
		fmt.Printf("%-44s %10d %10d %10s  %s\n", c.Resolved, c.CritPath, c.BusyBound, cycles, status)
	}
	return nil
}

// printCol2im renders the Fig. 6 view: for every input-image cell, the
// number of (patch, xk, yk) contributions Col2Im sums into it. Cells with
// a count above 1 are where overlapping patches accumulate gradients.
func printCol2im(p isa.ConvParams, oh, ow int) {
	counts := make([][]int, p.Ih)
	for i := range counts {
		counts[i] = make([]int, p.Iw)
	}
	discarded := 0
	for pt := 0; pt < oh*ow; pt++ {
		for xk := 0; xk < p.Kh; xk++ {
			for yk := 0; yk < p.Kw; yk++ {
				h, w, pad := scu.SourceCoord(p, pt, xk, yk)
				if pad {
					discarded++
					continue
				}
				counts[h][w]++
			}
		}
	}
	fmt.Println("Col2Im scatter map (contributions summed per input cell, §III-D):")
	for h := 0; h < p.Ih; h++ {
		for w := 0; w < p.Iw; w++ {
			fmt.Printf("%3d", counts[h][w])
		}
		fmt.Println()
	}
	fmt.Printf("\n%d contributions fall in the zero padding and are discarded\n", discarded)
	fmt.Println("(the output must be zero-initialized before the first Col2Im issue)")
}
