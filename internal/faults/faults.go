// Package faults is a deterministic, seeded fault-injection framework for
// the simulated chip: a chaos harness. An Injector decides, purely from
// (seed, tile, attempt), whether a tile attempt is perturbed and how;
// the chip's tile executor then hands the decision to Fire in place of
// the attempt's run, which carries the fault out without executing an
// instruction:
//
//   - Transient: the attempt fails at a chosen instruction with a detected
//     transient fault (a soft error caught by a consistency check).
//   - BitFlip: one bit of the Unified Buffer is flipped and the attempt
//     fails at a chosen instruction with an ECC error — the corruption is
//     really present in the scratch-pad, so a resilience layer that failed
//     to retry on a pristine core would propagate it.
//   - StuckPipe: the chosen instruction's pipeline stops retiring. No later
//     instruction of that pipe can issue, so the attempt can never finish:
//     Fire returns the hang at once as a StuckPipeError naming the pipe.
//   - DroppedFlag: the program is re-synchronized with explicit
//     set_flag/wait_flag tokens (cce.AutoSync), one set_flag is dropped,
//     and the result is timed under explicit semantics — the starved
//     wait_flag deadlocks, again a hang, returned at once as an
//     aicore.DeadlockError naming the blocked pipe and the unsatisfied flag.
//
// A hang is a property of the instruction stream, not of elapsed time, so
// no fault waits on the wall clock or on the core's Cancel channel.
//
// Decisions are pure functions of the configuration, so the fault schedule
// is identical across runs and independent of goroutine scheduling: chaos
// tests can assert bit-identical outputs and exact counter values.
package faults

import (
	"errors"
	"fmt"
	"strings"

	"davinci/internal/aicore"
	"davinci/internal/cce"
	"davinci/internal/isa"
	"davinci/internal/obs"
)

// Kind classifies one injected fault.
type Kind uint8

const (
	// KindNone: the attempt runs clean.
	KindNone Kind = iota
	// KindTransient aborts the run with a detected transient fault.
	KindTransient
	// KindBitFlip flips a scratch-pad bit and aborts with an ECC error.
	KindBitFlip
	// KindDroppedFlag drops a set_flag from the explicitly synchronized
	// program, hanging the matching wait_flag.
	KindDroppedFlag
	// KindStuckPipe hangs the run at an instruction of a chosen pipe.
	KindStuckPipe
	numKinds
)

var kindNames = [...]string{"none", "transient", "bitflip", "droppedflag", "stuckpipe"}

func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKinds parses a comma-separated kind list ("transient,bitflip").
func ParseKinds(s string) ([]Kind, error) {
	var kinds []Kind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for k := KindTransient; k < numKinds; k++ {
			if k.String() == name {
				kinds = append(kinds, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("faults: unknown kind %q (want transient, bitflip, droppedflag, stuckpipe)", name)
		}
	}
	return kinds, nil
}

// AllKinds returns every injectable kind.
func AllKinds() []Kind {
	return []Kind{KindTransient, KindBitFlip, KindDroppedFlag, KindStuckPipe}
}

// Config describes a fault schedule.
type Config struct {
	// Seed fixes the pseudo-random schedule; the same seed always injects
	// the same faults into the same (tile, attempt) pairs.
	Seed int64
	// Rate is the per-attempt injection probability in [0, 1].
	Rate float64
	// Kinds restricts the injected fault kinds; nil enables all.
	Kinds []Kind
	// MaxPerTile caps how many attempts of one tile may fault (faults hit
	// attempts 1..MaxPerTile; later retries always run clean). 0 means 1,
	// which guarantees the first retry of any faulted tile succeeds.
	// Set it at or above the executor's attempt budget to exhaust retries.
	MaxPerTile int
}

// Tile identifies one (n, c1) tile of a chip run.
type Tile struct{ N, C1 int }

// Fault is one decided perturbation. The zero value is "no fault".
type Fault struct {
	// Kind selects the perturbation; KindNone runs clean.
	Kind Kind
	// r is the entropy Fire derives fault parameters from (target
	// instruction, flipped bit, dropped flag).
	r uint64
}

// Injector decides and fires faults. Safe for concurrent use: decisions
// are pure and the counters are atomic.
type Injector struct {
	cfg      Config
	kinds    []Kind
	injected [numKinds]*obs.Counter
}

// New creates an injector. r receives the faults_injected{kind=...}
// counters; nil defers registration to Bind (or a private registry).
func New(cfg Config, r *obs.Registry) *Injector {
	if cfg.MaxPerTile <= 0 {
		cfg.MaxPerTile = 1
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	inj := &Injector{cfg: cfg, kinds: kinds}
	if r != nil {
		inj.Bind(r)
	}
	return inj
}

// Bind registers the injector's counters in r (idempotent; the first
// registry wins). The chip binds an unbound injector to its own registry
// so faults_injected appears in the same snapshot as the retry counters.
func (inj *Injector) Bind(r *obs.Registry) {
	if inj.injected[KindTransient] != nil {
		return
	}
	for _, k := range AllKinds() {
		inj.injected[k] = r.Counter("faults_injected", "kind", k.String())
	}
}

// Injected returns how many faults of kind k have actually fired.
func (inj *Injector) Injected(k Kind) int64 {
	if inj.injected[k] == nil {
		return 0
	}
	return inj.injected[k].Load()
}

func (inj *Injector) count(k Kind) {
	if inj.injected[k] != nil {
		inj.injected[k].Inc()
	}
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Decide returns the fault for one (tile, attempt), attempt 1-based. Pure:
// the schedule depends only on the configuration, never on execution
// order, so concurrent workers and reruns see the same faults.
func (inj *Injector) Decide(t Tile, attempt int) Fault {
	if attempt > inj.cfg.MaxPerTile || inj.cfg.Rate <= 0 {
		return Fault{}
	}
	h := splitmix64(uint64(inj.cfg.Seed))
	h = splitmix64(h ^ uint64(uint32(t.N))<<32 ^ uint64(uint32(t.C1)))
	h = splitmix64(h ^ uint64(attempt))
	// 53 uniform bits -> [0, 1).
	if float64(h>>11)/(1<<53) >= inj.cfg.Rate {
		return Fault{}
	}
	h2 := splitmix64(h)
	return Fault{Kind: inj.kinds[h2%uint64(len(inj.kinds))], r: splitmix64(h2)}
}

// Fire carries out fault f, decided for an attempt to run prog on core,
// in place of that run: no instruction executes. It returns the attempt's
// error, or nil when f has nothing to act on (KindNone, or a DroppedFlag
// in a program whose AutoSync form has no set_flag) and the attempt runs
// clean; faults_injected counts every fault that fires. The instruction
// kinds target instruction r mod len(prog) and name it as a failed run
// does. A stuck pipe records on a traced core the schedule before the
// target, a dropped flag the explicit schedule up to its deadlock; both
// return their hang without blocking.
func (inj *Injector) Fire(core *aicore.Core, prog *cce.Program, f Fault) error {
	switch f.Kind {
	case KindNone:
		return nil
	case KindDroppedFlag:
		return inj.dropFlag(core, prog, f)
	}
	n := len(prog.Instrs)
	if n == 0 {
		return nil
	}
	target := int(f.r % uint64(n))
	at := func(err error) error {
		return fmt.Errorf("aicore: %s instr %d (%s): %w", prog.Name, target, prog.Instrs[target], err)
	}
	switch f.Kind {
	case KindBitFlip:
		mem := core.Mem.Mem(isa.UB)
		off := int((f.r >> 17) % uint64(len(mem)))
		bit := uint(f.r>>3) & 7
		mem[off] ^= 1 << bit
		inj.count(KindBitFlip)
		return at(&ECCError{Buf: isa.UB, Offset: off, Bit: int(bit)})
	case KindStuckPipe:
		core.TraceUpTo(prog, target)
		inj.count(KindStuckPipe)
		return at(&StuckPipeError{Pipe: prog.Instrs[target].Pipe(), Instr: target})
	default:
		inj.count(KindTransient)
		return at(&TransientError{Instr: target})
	}
}

// dropFlag realizes the dropped-set_flag kind: prog is explicitly
// synchronized and one set_flag is removed. AutoSync pairs every set_flag
// with one wait_flag, so the mutilated program's explicit schedule
// deadlocks on the starved wait, and the timing walk returns that
// deadlock.
func (inj *Injector) dropFlag(core *aicore.Core, prog *cce.Program, f Fault) error {
	synced := cce.AutoSync(prog)
	var sets []int
	for i, in := range synced.Instrs {
		if _, ok := in.(*isa.SetFlagInstr); ok {
			sets = append(sets, i)
		}
	}
	if len(sets) == 0 {
		return nil // single-pipe program: nothing to drop, run clean
	}
	drop := sets[int(f.r%uint64(len(sets)))]
	mut := cce.New(synced.Name + "-dropflag")
	for i, in := range synced.Instrs {
		if i != drop {
			mut.Emit(in)
		}
	}
	inj.count(KindDroppedFlag)
	_, err := core.TimeExplicit(mut)
	return err
}

// TransientError is a detected transient tile fault (soft error).
type TransientError struct {
	// Instr is the instruction index the fault fired at.
	Instr int
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("faults: injected transient fault at instr %d", e.Instr)
}

// ECCError is a detected (uncorrectable) scratch-pad bit flip.
type ECCError struct {
	// Buf is the corrupted buffer.
	Buf isa.BufID
	// Offset and Bit locate the flipped bit.
	Offset, Bit int
}

func (e *ECCError) Error() string {
	return fmt.Sprintf("faults: injected ECC error: bit %d of %v byte %d flipped", e.Bit, e.Buf, e.Offset)
}

// StuckPipeError reports a pipeline that stopped retiring: the attempt
// hangs, since no later instruction of that pipe can issue.
type StuckPipeError struct {
	// Pipe is the stuck pipeline.
	Pipe isa.Pipe
	// Instr is the instruction index that never retired.
	Instr int
}

func (e *StuckPipeError) Error() string {
	return fmt.Sprintf("faults: injected stuck pipe: %v wedged at instr %d", e.Pipe, e.Instr)
}

// IsInjected reports whether err stems from an injected fault, and its
// kind. A resilient executor treats exactly these (plus hangs and panics)
// as retryable; any other failure is a deterministic bug and fails fast.
func IsInjected(err error) (Kind, bool) {
	var te *TransientError
	var ee *ECCError
	var se *StuckPipeError
	switch {
	case errors.As(err, &te):
		return KindTransient, true
	case errors.As(err, &ee):
		return KindBitFlip, true
	case errors.As(err, &se):
		return KindStuckPipe, true
	}
	return KindNone, false
}
