// Package trace is a span-based hierarchical tracer for the host-side
// compile-and-dispatch pipeline: plan-cache lookups, strict compiles,
// optimizer passes, autoschedule search, and per-tile execution
// on the simulated chip.
//
// The cycle-level simulator is already deeply observable (aicore.Trace,
// the stall scoreboard, Perfetto export); this package covers the other
// half of the request path — everything that happens on the host before
// and around a program running on a core — and stitches the two together.
// Each span therefore carries up to two time domains:
//
//   - host wall-clock, in Unix nanoseconds (always present), and
//   - simulated cycles (optional, set for spans that wrap a core run).
//
// Design constraints, in order:
//
//  1. Determinism. Span IDs come from a per-Tracer atomic counter, so a
//     single-threaded run numbers spans identically every time, and the
//     JSONL export is sorted by ID. Wall-clock timestamps are the only
//     nondeterministic field, and tests can pin them with SetClock.
//  2. Zero cost when disabled. The zero Ctx is a valid, inert tracing
//     context: every method on Ctx and *ActiveSpan is safe on the zero
//     value / nil receiver and does no work. Call sites never branch.
//  3. No dependencies. The package is stdlib-only and sits below
//     internal/obs in the import order, so any layer can emit spans.
//
// Causality beyond parent/child is expressed with typed Links: a retried
// tile links "retry_of" its failed attempt, every tile-execution span
// links "plan" to the plan-lookup span that produced its kernel, and a
// degraded tile links "after" the attempt that exhausted its budget.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one Tracer. IDs are assigned from 1
// in span-start order; 0 is "no span".
type SpanID uint64

// Attr is a single key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Link is a typed causal edge to another span, beyond the parent/child
// tree: "plan" (tile → plan lookup), "retry_of" (attempt N → attempt
// N-1), "after" (degrade → final failed attempt).
type Link struct {
	Kind   string `json:"kind"`
	Target SpanID `json:"target"`
}

// Span is a finished span. StartNS/EndNS are host wall-clock Unix
// nanoseconds; CycStart/CycEnd are simulated cycles and only meaningful
// when HasCycles is set.
type Span struct {
	ID        SpanID `json:"id"`
	Parent    SpanID `json:"parent,omitempty"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	CycStart  int64  `json:"cyc_start,omitempty"`
	CycEnd    int64  `json:"cyc_end,omitempty"`
	HasCycles bool   `json:"has_cycles,omitempty"`
	Attrs     []Attr `json:"attrs,omitempty"`
	Links     []Link `json:"links,omitempty"`
}

// Attr returns the value of the first attribute with the given key.
func (s *Span) Attr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// LinkTo reports whether the span has a link of the given kind to target.
func (s *Span) LinkTo(kind string, target SpanID) bool {
	for _, l := range s.Links {
		if l.Kind == kind && l.Target == target {
			return true
		}
	}
	return false
}

// Tracer collects spans. It is safe for concurrent use; span IDs are
// allocated atomically and finished spans are appended under a mutex.
//
// Retention is unbounded by default, which is right for benches and tests
// that export every span. Long-running processes (the serving fleet, the
// live exporter) call SetMaxSpans to cap retention: once full, each new
// finished span evicts the oldest retained one and Dropped counts the
// evictions, so memory stays bounded under sustained load while the most
// recent history stays inspectable.
type Tracer struct {
	nextID  atomic.Uint64
	active  atomic.Int64 // started but not yet ended
	dropped atomic.Int64 // finished spans evicted by the retention cap

	mu    sync.Mutex
	done  []Span // ring buffer when max > 0, plain append otherwise
	head  int    // index of the oldest retained span once the ring is full
	full  bool   // ring has wrapped at least once
	max   int    // retention cap; 0 = unbounded
	clock func() int64
}

// New returns a Tracer using the real wall clock.
func New() *Tracer {
	return &Tracer{clock: func() int64 { return time.Now().UnixNano() }}
}

// SetClock replaces the wall-clock source (tests pin it for fully
// deterministic spans). Must be called before any span starts.
func (t *Tracer) SetClock(now func() int64) { t.clock = now }

// SetMaxSpans caps the number of finished spans the tracer retains; once
// the cap is reached the oldest span is evicted per new finish and
// Dropped grows. n <= 0 restores unbounded retention. Call before spans
// finish — changing the cap mid-run resets retained history.
func (t *Tracer) SetMaxSpans(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 {
		n = 0
	}
	t.max = n
	t.done = nil
	t.head = 0
	t.full = false
}

// Dropped returns the number of finished spans evicted by the retention
// cap (0 when unbounded or not yet full).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Root returns the root tracing context: spans started from it have no
// parent.
func (t *Tracer) Root() Ctx {
	if t == nil {
		return Ctx{}
	}
	return Ctx{t: t}
}

// Active returns the number of spans started but not yet ended — zero
// after a quiesced run if no span leaked.
func (t *Tracer) Active() int64 {
	if t == nil {
		return 0
	}
	return t.active.Load()
}

// Len returns the number of finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done)
}

// Finished returns a copy of all finished spans sorted by ID (start
// order), the canonical deterministic ordering for export.
func (t *Tracer) Finished() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.done))
	copy(out, t.done)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Tail returns the last n finished spans by ID (all of them if n <= 0 or
// n exceeds the count).
func (t *Tracer) Tail(n int) []Span {
	all := t.Finished()
	if n <= 0 || n >= len(all) {
		return all
	}
	return all[len(all)-n:]
}

// Count returns the number of finished spans with the given name.
func (t *Tracer) Count(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := range t.done {
		if t.done[i].Name == name {
			n++
		}
	}
	return n
}

// Ctx is a tracing context: a handle on a Tracer plus the span new child
// spans attach under. The zero Ctx is valid and inert — every method is
// a no-op — so code paths thread a Ctx unconditionally and pay nothing
// when tracing is off.
type Ctx struct {
	t    *Tracer
	span *ActiveSpan // parent; nil at the root
}

// Enabled reports whether spans started from this context are recorded.
func (c Ctx) Enabled() bool { return c.t != nil }

// ID returns the parent span's ID (0 at the root or when disabled).
func (c Ctx) ID() SpanID {
	if c.span == nil {
		return 0
	}
	return c.span.ID()
}

// SetAttr annotates the context's span — the *parent* from the callee's
// point of view. A callee uses this to report an outcome on the span its
// caller opened (e.g. the plan cache marking the caller's lookup span
// hit or miss).
func (c Ctx) SetAttr(key, value string) { c.span.SetAttr(key, value) }

// StartSpan starts a child span. kv is an even-length list of attribute
// key/value pairs. Returns nil when the context is disabled; all
// *ActiveSpan methods are nil-safe.
func (c Ctx) StartSpan(name string, kv ...string) *ActiveSpan {
	if c.t == nil {
		return nil
	}
	s := &ActiveSpan{t: c.t}
	s.span.ID = SpanID(c.t.nextID.Add(1))
	s.span.Parent = c.ID()
	s.span.Name = name
	s.span.StartNS = c.t.clock()
	for i := 0; i+1 < len(kv); i += 2 {
		s.span.Attrs = append(s.span.Attrs, Attr{Key: kv[i], Value: kv[i+1]})
	}
	c.t.active.Add(1)
	return s
}

// ActiveSpan is a started, not-yet-finished span. Methods are safe on a
// nil receiver (tracing disabled) and safe for concurrent use.
type ActiveSpan struct {
	t     *Tracer
	mu    sync.Mutex
	span  Span
	ended bool
}

// Ctx returns a context that parents new spans under this one.
func (s *ActiveSpan) Ctx() Ctx {
	if s == nil {
		return Ctx{}
	}
	return Ctx{t: s.t, span: s}
}

// ID returns the span's ID (0 on nil).
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.span.ID // immutable after StartSpan
}

// SetAttr adds or replaces an attribute.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.span.Attrs {
		if s.span.Attrs[i].Key == key {
			s.span.Attrs[i].Value = value
			return
		}
	}
	s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Value: value})
}

// Link adds a typed causal edge to another span. Links to span 0 are
// dropped (no such span).
func (s *ActiveSpan) Link(kind string, target SpanID) {
	if s == nil || target == 0 {
		return
	}
	s.mu.Lock()
	s.span.Links = append(s.span.Links, Link{Kind: kind, Target: target})
	s.mu.Unlock()
}

// SetCycles records the span's position on the simulated-cycle timeline.
func (s *ActiveSpan) SetCycles(start, end int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.span.CycStart, s.span.CycEnd, s.span.HasCycles = start, end, true
	s.mu.Unlock()
}

// SetWall overrides the span's wall-clock window, for spans reconstructed
// retrospectively from timestamps recorded by a lower layer (e.g. the
// optimizer records per-pass windows; the plan cache replays them as
// spans after the compile returns).
func (s *ActiveSpan) SetWall(startNS, endNS int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.span.StartNS, s.span.EndNS = startNS, endNS
	s.mu.Unlock()
}

// End finishes the span and hands it to the tracer. Ending twice is a
// no-op. If SetWall already fixed the end time, it is kept.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	if s.span.EndNS == 0 {
		s.span.EndNS = s.t.clock()
	}
	sp := s.span
	s.mu.Unlock()
	s.t.active.Add(-1)
	t := s.t
	t.mu.Lock()
	switch {
	case t.max == 0:
		t.done = append(t.done, sp)
	case len(t.done) < t.max && !t.full:
		t.done = append(t.done, sp)
		if len(t.done) == t.max {
			t.full = true
		}
	default:
		t.done[t.head] = sp
		t.head = (t.head + 1) % len(t.done)
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}
