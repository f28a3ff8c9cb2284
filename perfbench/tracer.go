package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dlpt/engine"
)

// span is one timed call at a layer boundary. Spans of one benchmark
// operation share op; parent is the id of the span that caused this
// one (0 for an operation's API span). The counters carry what the
// call reported: hops and values fetched for a discovery, nodes
// visited for a stream, ids returned for a Find.
type span struct {
	name       string
	id, parent int64
	op         int64
	start, end time.Duration // offsets from the tracer's epoch
	n1, n2, n3 int
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	on    atomic.Bool // spans are recorded only while on

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// opRef travels in the context of a traced operation so that engine
// spans find their operation and parent.
type opRef struct{ op, parent int64 }

type opRefKey struct{}

func withOp(ctx context.Context, ref opRef) context.Context {
	return context.WithValue(ctx, opRefKey{}, ref)
}

func opOf(ctx context.Context) opRef {
	ref, _ := ctx.Value(opRefKey{}).(opRef)
	return ref
}

// begin opens an engine-layer span under the operation in ctx; it
// returns nil while tracing is off.
func (t *tracer) begin(ctx context.Context, name string) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	ref := opOf(ctx)
	return &span{name: name, id: t.ids.Add(1), parent: ref.parent, op: ref.op, start: t.now()}
}

func (t *tracer) finish(s *span) {
	if s == nil {
		return
	}
	s.end = t.now()
	t.record(*s)
}

// dump writes every span as one tab-separated line:
// name id parent op start_ns end_ns n1 n2 n3.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.op,
			s.start.Nanoseconds(), s.end.Nanoseconds(), s.n1, s.n2, s.n3)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// corruption makes the engine decorator falsify answers, so that the
// benchmark's checks can be shown to catch wrong answers.
type corruption int

const (
	corruptNone         corruption = iota
	corruptDropEndpoint            // a discovery of a routine key loses its first endpoint
	corruptSkipKey                 // every stream skips its first key
	corruptStaleID                 // every attribute-key discovery gains a stale resource id
)

// staleID is the resource id corruptStaleID adds.
const staleID = "res-stale"

// decorate wraps the engines f builds in the timing (and optionally
// corrupting) decorator. It is installed through WithEngineFactory.
func decorate(f engine.Factory, t *tracer, c corruption) engine.Factory {
	return func(cfg engine.Config) (engine.Engine, error) {
		e, err := f(cfg)
		if err != nil {
			return nil, err
		}
		return &tracedEngine{Engine: e, tr: t, corrupt: c}, nil
	}
}

// tracedEngine records an engine-layer span around every call the
// benchmark's operations reach, sharing the operation's id.
type tracedEngine struct {
	engine.Engine
	tr      *tracer // nil: no spans
	corrupt corruption
}

func (e *tracedEngine) Discover(ctx context.Context, key string) (engine.Result, error) {
	sp := e.tr.begin(ctx, "engine.discover")
	res, err := e.Engine.Discover(ctx, key)
	if sp != nil {
		sp.n1, sp.n2, sp.n3 = res.LogicalHops, res.PhysicalHops, len(res.Values)
		e.tr.finish(sp)
	}
	switch {
	case e.corrupt == corruptDropEndpoint && !isAttrKey(key) && len(res.Values) > 0:
		res.Values = append([]string(nil), res.Values[1:]...)
	case e.corrupt == corruptStaleID && isAttrKey(key) && res.Found:
		vs := append([]string(nil), res.Values...)
		if i, found := slices.BinarySearch(vs, staleID); !found {
			vs = slices.Insert(vs, i, staleID)
		}
		res.Values = vs
	}
	return res, err
}

func (e *tracedEngine) Register(ctx context.Context, key, value string) error {
	sp := e.tr.begin(ctx, "engine.register")
	err := e.Engine.Register(ctx, key, value)
	e.tr.finish(sp)
	return err
}

func (e *tracedEngine) RegisterBatch(ctx context.Context, entries []engine.Entry) error {
	sp := e.tr.begin(ctx, "engine.register_batch")
	err := e.Engine.RegisterBatch(ctx, entries)
	e.tr.finish(sp)
	return err
}

func (e *tracedEngine) Unregister(ctx context.Context, key, value string) (bool, error) {
	sp := e.tr.begin(ctx, "engine.unregister")
	ok, err := e.Engine.Unregister(ctx, key, value)
	e.tr.finish(sp)
	return ok, err
}

func (e *tracedEngine) AddPeer(ctx context.Context, capacity int) (string, error) {
	sp := e.tr.begin(ctx, "engine.join")
	id, err := e.Engine.AddPeer(ctx, capacity)
	e.tr.finish(sp)
	return id, err
}

func (e *tracedEngine) RemovePeer(ctx context.Context, id string) error {
	sp := e.tr.begin(ctx, "engine.leave")
	err := e.Engine.RemovePeer(ctx, id)
	e.tr.finish(sp)
	return err
}

func (e *tracedEngine) CrashPeer(ctx context.Context, id string) error {
	sp := e.tr.begin(ctx, "engine.crash")
	err := e.Engine.CrashPeer(ctx, id)
	e.tr.finish(sp)
	return err
}

func (e *tracedEngine) Recover(ctx context.Context) (engine.RecoveryReport, error) {
	sp := e.tr.begin(ctx, "engine.recover")
	rep, err := e.Engine.Recover(ctx)
	e.tr.finish(sp)
	return rep, err
}

func (e *tracedEngine) Replicate(ctx context.Context) (int, error) {
	sp := e.tr.begin(ctx, "engine.replicate")
	n, err := e.Engine.Replicate(ctx)
	e.tr.finish(sp)
	return n, err
}

// Query times the stream's open; the stream itself times its first
// Next, its Close, and its whole life from open to closed.
func (e *tracedEngine) Query(ctx context.Context, q engine.Query) (engine.Stream, error) {
	sp := e.tr.begin(ctx, "engine.query_open")
	s, err := e.Engine.Query(ctx, q)
	e.tr.finish(sp)
	if err != nil {
		return nil, err
	}
	ts := &tracedStream{Stream: s, e: e, ctx: ctx}
	if sp != nil {
		ts.life = &span{name: "engine.stream", id: e.tr.ids.Add(1), parent: sp.parent, op: sp.op, start: sp.start}
	}
	return ts, nil
}

type tracedStream struct {
	engine.Stream
	e      *tracedEngine
	ctx    context.Context
	life   *span // nil when untraced
	nexts  int
	closed bool
}

func (s *tracedStream) Next() (string, bool) {
	var sp *span
	if s.nexts == 0 {
		sp = s.e.tr.begin(s.ctx, "engine.first_next")
	}
	k, ok := s.Stream.Next()
	if s.nexts == 0 && ok && s.e.corrupt == corruptSkipKey {
		k, ok = s.Stream.Next()
	}
	if sp != nil {
		sp.n1 = s.Stream.Stats().NodesVisited
		s.e.tr.finish(sp)
	}
	s.nexts++
	return k, ok
}

func (s *tracedStream) Close() error {
	if s.closed {
		return s.Stream.Close()
	}
	s.closed = true
	sp := s.e.tr.begin(s.ctx, "engine.stream_close")
	err := s.Stream.Close()
	if sp != nil {
		s.e.tr.finish(sp)
	}
	if s.life != nil && s.e.tr.on.Load() {
		s.life.end = s.e.tr.now()
		st := s.Stream.Stats()
		s.life.n1, s.life.n2, s.life.n3 = st.NodesVisited, st.LogicalHops, st.PhysicalHops
		s.e.tr.record(*s.life)
	}
	return err
}

// selfTime is a span's duration minus the part of it its children
// cover; children may overlap each other (a Find's concurrent
// discoveries).
func selfTime(parent *span, children []*span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curA, curB time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			covered += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}
