package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math/rand/v2"
	"sort"
	"time"
)

// This file extends the span primitive into real distributed traces:
// 128-bit trace identities, parent/child span relationships, key/value
// attributes and head sampling, propagated via context in-process and
// via the stream request's trace context across process hops.
// One cold-miss request yields a single tree — client.play → proxy
// session → upstream fetch → server session → pipeline stages — that
// /debug/traces serves as JSON and -trace-dir exports as JSONL.
//
// The zero-cost contract of the rest of the package holds: with no
// registry attached every trace call is a no-op that allocates nothing
// (benchmark-enforced).

// TraceID is a 128-bit trace identity shared by every span of one
// request, across processes.
type TraceID [16]byte

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is a 64-bit span identity, unique within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the portable identity of one span: enough to parent a
// child span in another goroutine or another process. The zero value is
// "no trace".
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// newTraceID / newSpanID draw random identities from the global
// goroutine-safe PRNG (math/rand/v2 is seeded from the OS).
func newTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], rand.Uint64())
	binary.BigEndian.PutUint64(t[8:], rand.Uint64())
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		binary.BigEndian.PutUint64(s[:], rand.Uint64())
	}
	return s
}

// traceContextLen is the wire size of a propagated span context: the
// 16-byte trace ID, the 8-byte span ID and one flags byte whose bit 0 is
// the sampled bit (as in W3C traceparent). The stream request and the
// cluster fetch request both carry it after their own flags byte.
const traceContextLen = 25

const traceFlagSampled = 1 << 0

// AppendTraceContext appends sc's wire form to b.
func AppendTraceContext(b []byte, sc SpanContext) []byte {
	b = append(b, sc.Trace[:]...)
	b = append(b, sc.Span[:]...)
	var flags uint8
	if sc.Sampled {
		flags |= traceFlagSampled
	}
	return append(b, flags)
}

// ReadTraceContext reads one wire-form span context from r. A context
// that is present but zero decodes as the zero value, so the receiver
// never parents spans under a bogus identity.
func ReadTraceContext(r io.Reader) (SpanContext, error) {
	var b [traceContextLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return SpanContext{}, err
	}
	sc := SpanContext{
		Trace:   TraceID(b[:16]),
		Span:    SpanID(b[16:24]),
		Sampled: b[24]&traceFlagSampled != 0,
	}
	if !sc.Valid() {
		return SpanContext{}, nil
	}
	return sc, nil
}

// spanCtxKey carries the active SpanContext (the parent for StartSpan
// calls below it) through a context.
type spanCtxKey struct{}

// WithSpanContext returns ctx with sc as the active span context. The
// receiving side of a process hop uses it to parent local spans under
// the remote caller's span (decoded from the protocol header).
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFrom returns the active span context, or the zero value.
func SpanContextFrom(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// StartTrace begins a new trace rooted at a span named name, against the
// context's registry. The head sampling decision is made here, from the
// registry's sampling ratio, and inherited by every child span (local
// and remote). With no registry attached it is a free no-op returning
// ctx unchanged.
func StartTrace(ctx context.Context, name string) (context.Context, Span) {
	r := FromContext(ctx)
	if r == nil {
		return ctx, Span{}
	}
	sp := r.StartSpan(name)
	sp.d = &spanData{sc: SpanContext{
		Trace:   newTraceID(),
		Span:    newSpanID(),
		Sampled: r.sampleTrace(),
	}}
	return WithSpanContext(ctx, sp.d.sc), sp
}

// StartSpanCtx begins a span like StartSpan and additionally returns a
// context under which further spans become its children. When ctx
// carries no active span the new span roots a fresh trace, so a tier
// that is hit directly (no propagated header) still produces a tree.
func StartSpanCtx(ctx context.Context, name string) (context.Context, Span) {
	r := FromContext(ctx)
	if r == nil {
		return ctx, Span{}
	}
	if !SpanContextFrom(ctx).Valid() {
		return StartTrace(ctx, name)
	}
	sp := r.startSpanIn(ctx, name)
	return WithSpanContext(ctx, sp.d.sc), sp
}

// startSpanIn builds a traced child span of ctx's active span context.
func (r *Registry) startSpanIn(ctx context.Context, name string) Span {
	parent := SpanContextFrom(ctx)
	sp := r.StartSpan(name)
	sp.d = &spanData{
		sc: SpanContext{
			Trace:   parent.Trace,
			Span:    newSpanID(),
			Sampled: parent.Sampled,
		},
		parent: parent.Span,
	}
	return sp
}

// sampleTrace makes the head sampling decision for a new root. The
// default ratio is 1 (trace everything).
func (r *Registry) sampleTrace() bool {
	r.traceMu.Lock()
	ratio, set := r.sampleRatio, r.sampleSet
	r.traceMu.Unlock()
	if !set || ratio >= 1 {
		return true
	}
	if ratio <= 0 {
		return false
	}
	return rand.Float64() < ratio
}

// SetTraceSampling sets the head sampling ratio for new traces rooted at
// this registry (0 disables tracing, 1 traces everything; the default).
// Sampled-ness propagates with the trace, so a downstream tier honours
// the caller's decision regardless of its own ratio.
func (r *Registry) SetTraceSampling(ratio float64) {
	if r == nil {
		return
	}
	r.traceMu.Lock()
	r.sampleRatio, r.sampleSet = ratio, true
	r.traceMu.Unlock()
}

// defaultTraceRingSize bounds the completed-trace-span ring when
// SetTraceRingSize was not called.
const defaultTraceRingSize = 2048

// SetTraceRingSize bounds the ring of completed trace spans served by
// /debug/traces (default 2048). Resizing clears the ring.
func (r *Registry) SetTraceRingSize(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.traceMu.Lock()
	r.traceRing = make([]SpanRecord, n)
	r.traceN = 0
	r.traceMu.Unlock()
}

// SetTraceWriter streams every completed sampled span to w as one JSON
// line (the -trace-dir export). Writes are serialised; a nil w stops the
// export.
func (r *Registry) SetTraceWriter(w io.Writer) {
	if r == nil {
		return
	}
	r.traceMu.Lock()
	r.traceW = w
	r.traceMu.Unlock()
}

// spanJSON is the JSONL export / debug-endpoint shape of one span.
type spanJSON struct {
	Trace    string            `json:"trace"`
	Span     string            `json:"span"`
	Parent   string            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration float64           `json:"dur_ms"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

func recordJSON(rec SpanRecord) spanJSON {
	j := spanJSON{
		Trace:    rec.Trace.String(),
		Span:     rec.Span.String(),
		Name:     rec.Name,
		Start:    rec.Start,
		Duration: float64(rec.Duration) / float64(time.Millisecond),
	}
	if !rec.Parent.IsZero() {
		j.Parent = rec.Parent.String()
	}
	if len(rec.Attrs) > 0 {
		j.Attrs = make(map[string]string, len(rec.Attrs))
		for _, a := range rec.Attrs {
			j.Attrs[a.Key] = a.Value
		}
	}
	return j
}

// recordTraceSpan lands a completed sampled span in the trace ring and,
// when an export writer is attached, appends its JSON line.
func (r *Registry) recordTraceSpan(rec SpanRecord) {
	r.traceMu.Lock()
	if r.traceRing == nil {
		r.traceRing = make([]SpanRecord, defaultTraceRingSize)
	}
	r.traceRing[r.traceN%uint64(len(r.traceRing))] = rec
	r.traceN++
	w := r.traceW
	r.traceMu.Unlock()
	if w != nil {
		line, err := json.Marshal(recordJSON(rec))
		if err != nil {
			return
		}
		line = append(line, '\n')
		// Serialise concurrent exports without holding the ring lock
		// across a potentially slow writer.
		r.traceWMu.Lock()
		w.Write(line)
		r.traceWMu.Unlock()
	}
}

// recentTraceSpans snapshots the trace ring, oldest first.
func (r *Registry) recentTraceSpans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	if r.traceRing == nil {
		return nil
	}
	size := uint64(len(r.traceRing))
	n := r.traceN
	if n > size {
		n = size
	}
	out := make([]SpanRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.traceRing[(r.traceN-n+i)%size])
	}
	return out
}

// TraceNode is one span with its children, as assembled by TraceTrees.
type TraceNode struct {
	Record   SpanRecord
	Children []*TraceNode
}

// TraceTree is one assembled trace: every span of a trace ID still in
// the ring, in parent/child form. Spans whose parent fell out of the
// ring (or ended in another process) surface as additional roots, so a
// partial view is still a forest rather than lost.
type TraceTree struct {
	Trace    TraceID
	Start    time.Time
	Duration time.Duration // earliest span start to latest span end
	Spans    int
	Roots    []*TraceNode
}

// TraceTrees groups the completed-span ring by trace ID and assembles
// parent/child trees, newest trace first, dropping traces shorter than
// min (0 keeps everything).
func (r *Registry) TraceTrees(min time.Duration) []TraceTree {
	recs := r.recentTraceSpans()
	if len(recs) == 0 {
		return nil
	}
	byTrace := map[TraceID][]*TraceNode{}
	var order []TraceID
	for _, rec := range recs {
		if _, seen := byTrace[rec.Trace]; !seen {
			order = append(order, rec.Trace)
		}
		byTrace[rec.Trace] = append(byTrace[rec.Trace], &TraceNode{Record: rec})
	}
	var trees []TraceTree
	for _, id := range order {
		nodes := byTrace[id]
		byID := make(map[SpanID]*TraceNode, len(nodes))
		for _, n := range nodes {
			byID[n.Record.Span] = n
		}
		tree := TraceTree{Trace: id, Spans: len(nodes)}
		var start, end time.Time
		for _, n := range nodes {
			if parent, ok := byID[n.Record.Parent]; ok && !n.Record.Parent.IsZero() && parent != n {
				parent.Children = append(parent.Children, n)
			} else {
				tree.Roots = append(tree.Roots, n)
			}
			if start.IsZero() || n.Record.Start.Before(start) {
				start = n.Record.Start
			}
			if e := n.Record.Start.Add(n.Record.Duration); e.After(end) {
				end = e
			}
		}
		for _, n := range nodes {
			sort.Slice(n.Children, func(i, j int) bool {
				return n.Children[i].Record.Start.Before(n.Children[j].Record.Start)
			})
		}
		sort.Slice(tree.Roots, func(i, j int) bool {
			return tree.Roots[i].Record.Start.Before(tree.Roots[j].Record.Start)
		})
		tree.Start = start
		tree.Duration = end.Sub(start)
		if tree.Duration >= min {
			trees = append(trees, tree)
		}
	}
	// Newest trace first (by earliest span start).
	sort.Slice(trees, func(i, j int) bool { return trees[i].Start.After(trees[j].Start) })
	return trees
}

// traceTreeJSON is the /debug/traces shape of one trace.
type traceTreeJSON struct {
	Trace    string         `json:"trace"`
	Start    time.Time      `json:"start"`
	Duration float64        `json:"dur_ms"`
	Spans    int            `json:"spans"`
	Roots    []traceNodeJSON `json:"roots"`
}

type traceNodeJSON struct {
	spanJSON
	Children []traceNodeJSON `json:"children,omitempty"`
}

func nodeJSON(n *TraceNode) traceNodeJSON {
	out := traceNodeJSON{spanJSON: recordJSON(n.Record)}
	for _, c := range n.Children {
		out.Children = append(out.Children, nodeJSON(c))
	}
	return out
}

// writeTracesJSON renders the assembled trees as the /debug/traces body.
func (r *Registry) writeTracesJSON(w io.Writer, min time.Duration) error {
	trees := r.TraceTrees(min)
	out := make([]traceTreeJSON, 0, len(trees))
	for _, t := range trees {
		tj := traceTreeJSON{
			Trace:    t.Trace.String(),
			Start:    t.Start,
			Duration: float64(t.Duration) / float64(time.Millisecond),
			Spans:    t.Spans,
		}
		for _, root := range t.Roots {
			tj.Roots = append(tj.Roots, nodeJSON(root))
		}
		out = append(out, tj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
