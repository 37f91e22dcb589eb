// Package davinci is a functional and cycle-timing simulator of Huawei's
// DaVinci AI-accelerator architecture, built to reproduce the IPDPSW 2021
// paper "Pooling Acceleration in the DaVinci Architecture Using Im2col and
// Col2im Instructions" (Rohwedder et al.).
//
// It provides:
//
//   - a simulated Ascend-910-class device (32 AI Cores with Cube, Vector
//     and Scalar units, scratch-pad buffers, and the Storage Conversion
//     Unit's Im2Col and Col2Im instructions);
//   - every pooling kernel variant the paper evaluates — standard,
//     Im2col-based, expansion-based, X-Y split, argmax-saving forward, and
//     vadd- or Col2Im-based backward — plus convolution on the Cube unit;
//   - deterministic cycle counts from a calibrated cost model, so the
//     paper's figures can be regenerated (see cmd/davinci-bench).
//
// Quick start:
//
//	dev := davinci.NewDevice(davinci.ChipConfig{})
//	in := davinci.NewInput(1, 64, 147, 147) // N, C, H, W
//	p := davinci.Pooling2D(3, 2, 0)         // kernel 3, stride 2, no pad
//	p.Ih, p.Iw = 147, 147
//	out, stats, err := dev.MaxPoolForward("im2col", in, p)
//
// Tensors use the fractal NC1HWC0 layout (paper §III-B); convert from and
// to NCHW with FromNCHW and ToNCHW.
package davinci

import (
	"math/rand"

	"davinci/internal/chip"
	"davinci/internal/faults"
	"davinci/internal/isa"
	"davinci/internal/nn"
	"davinci/internal/ops"
	"davinci/internal/serve"
	"davinci/internal/tensor"
)

// Re-exported core types. They alias internal types so that the whole
// simulator surface (methods, fields) is usable through this package.
type (
	// Tensor is a dense Float16 tensor in one of the DaVinci layouts.
	Tensor = tensor.Tensor
	// PoolParams describes a pooling (or convolution) layer: input size,
	// padding, strides and kernel (paper §III-C).
	PoolParams = isa.ConvParams
	// ChipConfig configures the simulated device; the zero value is an
	// Ascend 910 (32 cores, 1 MiB L1, 256 KiB UB, ...).
	ChipConfig = chip.Config
	// Stats reports a run's simulated timing.
	Stats = chip.Stats
	// CostModel is the cycle-cost model; override ChipConfig.Cost with a
	// modified copy for sensitivity studies.
	CostModel = isa.CostModel
	// PlanCacheStats snapshots the device's kernel plan cache: programs
	// compiled, cache hits and misses. Available per run via Stats.Plans
	// and cumulatively via Device.PlanStats.
	PlanCacheStats = ops.CacheStats
	// Resilience configures the tile executor's fault tolerance (typed
	// hangs, retry/requeue, graceful degradation) via
	// ChipConfig.Resilience.
	Resilience = chip.Resilience
	// DegradedTile reports one tile computed by the host-side golden
	// model after its hardware retries were exhausted (Stats.Degraded).
	DegradedTile = chip.DegradedTile
	// TileError is a typed tile failure carrying the tile identity, core
	// index, attempt number and (for hangs) the blocked pipe, unsatisfied
	// wait_flag and stall-trace tail.
	TileError = chip.TileError
	// FaultConfig describes a deterministic seeded fault schedule for the
	// chaos harness (internal/faults).
	FaultConfig = faults.Config
	// FaultKind classifies one injected fault (transient, bitflip,
	// droppedflag, stuckpipe).
	FaultKind = faults.Kind
	// FaultInjector decides and fires seeded faults; pass one through
	// Resilience.Injector.
	FaultInjector = faults.Injector
)

// Tile-failure categories, matchable with errors.Is against a failed
// run's error (see chip.TileError).
var (
	// ErrTileFault: an attempt failed with a detected hardware fault.
	ErrTileFault = chip.ErrTileFault
	// ErrTileHang: an attempt could make no progress (a stuck pipe or a
	// starved wait_flag); it fails as soon as the hang is known.
	ErrTileHang = chip.ErrTileHang
	// ErrTilePanic: a tile worker panicked and was recovered.
	ErrTilePanic = chip.ErrTilePanic
	// ErrCoreFailed: a core exceeded its failure budget.
	ErrCoreFailed = chip.ErrCoreFailed
)

// NewFaultInjector creates a deterministic seeded fault injector for
// chaos runs; wire it into ChipConfig.Resilience.Injector. Its
// faults_injected counters register in the device's metrics registry
// when the device is built.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faults.New(cfg, nil) }

// ParseFaultKinds parses a comma-separated fault-kind list, e.g.
// "transient,stuckpipe" (see internal/faults for the kind names).
func ParseFaultKinds(s string) ([]FaultKind, error) { return faults.ParseKinds(s) }

// C0 is the fractal channel-split length for Float16 (16 elements).
const C0 = tensor.C0

// Device is a simulated DaVinci device. Kernels are compiled once per
// (variant, shape) into the device's plan cache and replayed for every
// tile and every repeated call; PlanStats reports the cache counters.
type Device struct {
	*chip.Chip
}

// NewDevice creates a device; zero-valued config fields take Ascend 910
// defaults.
func NewDevice(cfg ChipConfig) *Device {
	return &Device{Chip: chip.New(cfg)}
}

// DefaultCostModel returns a copy of the calibrated cycle-cost model.
func DefaultCostModel() *CostModel { return isa.DefaultCostModel() }

// Pooling2D builds PoolParams for a square kernel/stride/padding; set
// Ih/Iw (the input size) before use, or use WithInput.
func Pooling2D(kernel, stride, pad int) PoolParams {
	return PoolParams{
		Kh: kernel, Kw: kernel,
		Sh: stride, Sw: stride,
		Pt: pad, Pb: pad, Pl: pad, Pr: pad,
	}
}

// WithInput returns p with the input size set.
func WithInput(p PoolParams, h, w int) PoolParams {
	p.Ih, p.Iw = h, w
	return p
}

// NewInput allocates a zero NC1HWC0 input tensor for c logical channels.
func NewInput(n, c, h, w int) *Tensor { return tensor.NewFractal(n, c, h, w) }

// NewRandomInput allocates an NC1HWC0 input filled with uniform values in
// [-scale, scale].
func NewRandomInput(rng *rand.Rand, n, c, h, w int, scale float64) *Tensor {
	t := tensor.NewFractal(n, c, h, w)
	t.FillRandom(rng, scale)
	return t
}

// FromNCHW converts an NCHW tensor to the fractal NC1HWC0 layout,
// zero-padding channels to a multiple of 16.
func FromNCHW(t *Tensor) *Tensor { return tensor.ToFractal(t) }

// ToNCHW converts an NC1HWC0 tensor back to NCHW with c logical channels.
func ToNCHW(t *Tensor, c int) *Tensor { return tensor.FromFractal(t, c) }

// NewNCHW allocates a zero NCHW tensor.
func NewNCHW(n, c, h, w int) *Tensor { return tensor.NewNCHW(n, c, h, w) }

// KernelDims is what a kernel is compiled for: the layer parameters and,
// for the convolutions, the output and input channel counts. Device.Run
// takes it.
type KernelDims = ops.Dims

// Kernels lists every built-in kernel by the name Device.Run takes, in a
// stable order: "maxpool_fwd/standard", "maxpool_fwd/im2col", ...,
// "conv2d_bwd_weights". The part after "/" is the variant the typed
// Device methods take.
func Kernels() []string {
	var names []string
	for _, k := range ops.Kernels() {
		names = append(names, k.Name)
	}
	return names
}

// Network building blocks (see internal/nn): a Sequential stack of
// convolution and pooling layers with per-layer cycle accounting.
type (
	// Layer is one network stage.
	Layer = nn.Layer
	// Sequential is a linear layer stack.
	Sequential = nn.Sequential
	// Conv2DLayer is a Cube-unit convolution layer.
	Conv2DLayer = nn.Conv2D
	// MaxPool2DLayer is a max pooling layer with a selectable variant.
	MaxPool2DLayer = nn.MaxPool2D
	// AvgPool2DLayer is an average pooling layer with a selectable variant.
	AvgPool2DLayer = nn.AvgPool2D
	// ParallelLayer runs branches on the same input and concatenates
	// their outputs along the channel dimension (Inception blocks).
	ParallelLayer = nn.Parallel
	// LayerReport records one layer's execution.
	LayerReport = nn.LayerReport
)

// RunModel executes a sequential model on the device, returning the final
// activation, per-layer reports and the total cycles.
func (d *Device) RunModel(m *Sequential, in *Tensor) (*Tensor, []LayerReport, int64, error) {
	return m.Forward(d.Chip, in)
}

// Serving layer (see internal/serve and DESIGN.md §16): a fleet of
// simulated chips behind an asynchronous request path with admission
// control, deadline propagation, continuous batching, load shedding,
// per-chip circuit breakers and golden-model degradation. The contract
// is conservation: every submitted request reaches exactly one terminal
// outcome.
type (
	// Server is the serving fleet; build with NewServer, stop with Close.
	Server = serve.Server
	// ServeConfig sizes the fleet, queue, batching, SLO and degradation
	// policy.
	ServeConfig = serve.Config
	// ServeRequest is one pooling inference request.
	ServeRequest = serve.Request
	// ServeResponse is a request's terminal outcome (completed, degraded,
	// rejected or cancelled) with per-request degradation reporting.
	ServeResponse = serve.Response
	// ServeTicket is the future Submit returns; Wait blocks for the
	// response.
	ServeTicket = serve.Ticket
	// ServeClass is a request priority class; lower classes shed first.
	ServeClass = serve.Class
	// ServeStats is the conservation accounting (Lost() must be zero
	// after a drain).
	ServeStats = serve.Stats
	// LoadOptions configures the open-loop load generator.
	LoadOptions = serve.LoadOptions
	// LoadReport is one load run's outcome profile.
	LoadReport = serve.LoadReport
)

// Priority classes for ServeRequest.Class.
const (
	ClassBatch       = serve.ClassBatch
	ClassStandard    = serve.ClassStandard
	ClassInteractive = serve.ClassInteractive
)

// Typed admission and execution errors, matchable with errors.Is against
// a rejected response's Err.
var (
	// ErrQueueFull: the bounded intake queue is full and no lower-class
	// entry could be evicted.
	ErrQueueFull = serve.ErrQueueFull
	// ErrShedding: the load-shedding controller predicted an SLO bust for
	// this class.
	ErrShedding = serve.ErrShedding
	// ErrDeadlineBudget: the static critical-path bound proves the
	// deadline cannot be met.
	ErrDeadlineBudget = serve.ErrDeadlineBudget
	// ErrServerClosed: submitted after Close.
	ErrServerClosed = serve.ErrClosed
	// ErrChipFailed: the batch failed on-chip and degradation is off.
	ErrChipFailed = serve.ErrChipFailed
)

// NewServer builds and starts a serving fleet. Callers must Close it.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// RunLoad offers open-loop load to a server and waits for every ticket,
// so the report's conservation accounting is exact.
func RunLoad(s *Server, opt LoadOptions) *LoadReport { return serve.RunLoad(s, opt) }
