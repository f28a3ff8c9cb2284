package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dlpt"
	"dlpt/engine"
	enginelive "dlpt/engine/live"
	enginelocal "dlpt/engine/local"
	enginetcp "dlpt/engine/tcp"
)

// runOpts varies how one workload is run.
type runOpts struct {
	engine  dlpt.EngineKind // overrides the workload's engine (the core replay uses local)
	tracer  *tracer         // nil: untraced, no decorator unless corrupt is set
	corrupt corruption
	setups  int
	// workdir holds the durable overlay directories.
	workdir string
}

// layoutSeed seeds the overlay's own randomness (peer ids, and so which
// peer hosts which tree node) in every run. The layout is a constant of
// the workloads, like their peer count: it decides how many peers a
// discovery crosses, and when it followed --seed the median discovery
// of lookup moved by 40% from one seed to another (two peer crossings
// for most keys under some layouts, three under others).
const layoutSeed = 1

// result is what one run measured and checked.
type result struct {
	attempted, failed int
	errs              []string // the first few failures
	setup             []time.Duration
	heap              []float64 // live heap added by each set-up
	keys              int       // declared keys after set-up
	lat               map[kind][]time.Duration
	done              int           // operations of the measured phase that succeeded
	wall              time.Duration // measured phase
	// discoveries counts the checked discoveries, and entryHop those of
	// them that report one physical hop more than logical hops.
	discoveries, entryHop int
	// topology counts the joins, leaves and crashes of the phase, and
	// transfers the replica-transfer messages they cost.
	topology, transfers int
	layer               map[string]float64 // catalogue and persistence figures (traced churn)
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

// overlay is one running deployment under test.
type overlay struct {
	reg *dlpt.Registry
	dir *dlpt.Directory // query only; shares reg's engine
}

func (ov *overlay) close() {
	if ov.dir != nil {
		ov.dir.Close()
	}
	ov.reg.Close()
}

func baseFactory(kind dlpt.EngineKind) engine.Factory {
	switch kind {
	case dlpt.EngineLocal:
		return enginelocal.Factory
	case dlpt.EngineLive:
		return enginelive.Factory
	}
	return enginetcp.Factory
}

// runner executes one workload: set-up, measured phase, checks. Its
// one closed-loop client issues the next operation only after the
// previous one returned.
type runner struct {
	cfg  config
	in   *inputs
	opts runOpts
	kind dlpt.EngineKind
	tr   *tracer
	live *model // advanced by every write the run makes
	res  *result
	pdir string   // durable directory of the current overlay
	ov   *overlay // the overlay the operations go to
}

func (r *runner) options() []dlpt.Option {
	f := baseFactory(r.kind)
	if r.tr != nil || r.opts.corrupt != corruptNone {
		f = decorate(f, r.tr, r.opts.corrupt)
	}
	return []dlpt.Option{dlpt.WithSeed(layoutSeed), dlpt.WithEngineFactory(f)}
}

func (r *runner) durable() bool { return r.cfg.durable && r.kind != dlpt.EngineLocal }

// setup starts the overlay and loads the corpus. The durable churn
// overlay is then replicated, closed and cold-restarted from disk.
func (r *runner) setup(ctx context.Context) (*overlay, error) {
	opts := r.options()
	if r.durable() {
		if err := os.RemoveAll(r.pdir); err != nil {
			return nil, err
		}
		opts = append(opts, dlpt.WithPersistence(r.pdir))
	}
	reg, err := dlpt.New(r.cfg.peers, opts...)
	if err != nil {
		return nil, err
	}
	ov := &overlay{reg: reg}
	if err := reg.RegisterBatch(ctx, r.in.corpus); err != nil {
		ov.close()
		return nil, fmt.Errorf("load corpus: %w", err)
	}
	if len(r.in.resources) > 0 {
		ov.dir = dlpt.NewDirectoryWithEngine(reg.Engine())
		for _, res := range r.in.resources {
			if err := ov.dir.RegisterResource(ctx, res); err != nil {
				ov.close()
				return nil, fmt.Errorf("load resources: %w", err)
			}
		}
	}
	if !r.cfg.durable {
		return ov, nil
	}
	if _, err := reg.Replicate(ctx); err != nil {
		ov.close()
		return nil, fmt.Errorf("replicate: %w", err)
	}
	if !r.durable() {
		return ov, nil
	}
	if err := reg.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return r.restart(ctx)
}

// restart cold-restarts the durable overlay, recording a dlpt.restart
// span on a traced run.
func (r *runner) restart(ctx context.Context) (*overlay, error) {
	var start time.Duration
	if r.tr != nil {
		start = r.tr.now()
	}
	reg, err := dlpt.Restart(r.pdir, r.options()...)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	if r.tr != nil {
		r.tr.record(span{name: "dlpt.restart", id: r.tr.ids.Add(1), start: start, end: r.tr.now()})
	}
	return &overlay{reg: reg}, nil
}

// liveHeap returns the live heap. The second collection frees what the
// finalizers run after the first one released.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// checkServices compares the overlay's declared keys with the model.
func checkServices(ctx context.Context, reg *dlpt.Registry, m *model) error {
	got, err := reg.Services(ctx)
	if err != nil {
		return err
	}
	return checkEqual("Services", got, m.keys)
}

// runWorkload sets the overlay up opts.setups times, runs the scripts
// on the last one and checks the phase-end properties. A property that
// does not hold is returned as an error; a wrong answer is a failed
// operation in the result.
func runWorkload(ctx context.Context, cfg config, in *inputs, opts runOpts) (*result, error) {
	r := &runner{cfg: cfg, in: in, opts: opts, kind: cfg.engine, tr: opts.tracer,
		live: in.model.clone(), res: &result{lat: make(map[kind][]time.Duration), layer: make(map[string]float64)}}
	if opts.engine != "" {
		r.kind = opts.engine
	}
	if r.durable() {
		if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(opts.workdir, cfg.name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		r.pdir = filepath.Join(dir, "overlay")
	}
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	setups := max(opts.setups, 1)
	var ov *overlay
	for i := 0; i < setups; i++ {
		before := liveHeap()
		start := time.Now()
		var err error
		if ov, err = r.setup(ctx); err != nil {
			return nil, err
		}
		r.res.setup = append(r.res.setup, time.Since(start))
		r.res.heap = append(r.res.heap, liveHeap()-before)
		if i < setups-1 {
			ov.close()
		}
	}
	defer func() {
		if ov != nil {
			ov.close()
		}
	}()
	r.res.keys = len(in.model.keys)
	if err := ov.reg.Validate(ctx); err != nil {
		return nil, fmt.Errorf("validate after set-up: %w", err)
	}
	if r.durable() {
		if err := checkServices(ctx, ov.reg, r.live); err != nil {
			return nil, fmt.Errorf("after restart: %w", err)
		}
	}
	before, err := ov.reg.MembershipStats(ctx)
	if err != nil {
		return nil, err
	}

	r.ov = ov
	r.warmup(ctx)
	r.phase(ctx)

	after, err := ov.reg.MembershipStats(ctx)
	if err != nil {
		return nil, err
	}
	r.res.topology = (after.Joins - before.Joins) + (after.Leaves - before.Leaves) + (after.Crashes - before.Crashes)
	r.res.transfers = after.ReplicaTransferMsgs - before.ReplicaTransferMsgs
	if err := ov.reg.Validate(ctx); err != nil {
		return nil, fmt.Errorf("validate after the measured phase: %w", err)
	}
	if ov.dir != nil {
		if err := ov.dir.Validate(ctx); err != nil {
			return nil, fmt.Errorf("directory validate: %w", err)
		}
		if err := checkPushdown(ctx, ov.reg, in.model); err != nil {
			return nil, err
		}
	}
	if err := checkServices(ctx, ov.reg, r.live); err != nil {
		return nil, fmt.Errorf("after the measured phase: %w", err)
	}
	if r.durable() {
		if r.tr != nil {
			if err := measureCatalogue(ctx, ov.reg, r.res.layer); err != nil {
				return nil, err
			}
			if err := measureJournal(ctx, ov.reg, r.pdir, r.live, r.res.layer); err != nil {
				return nil, err
			}
		}
		if err := ov.reg.Close(); err != nil {
			return nil, err
		}
		if ov, err = r.restart(ctx); err != nil {
			return nil, err
		}
		if err := checkServices(ctx, ov.reg, r.live); err != nil {
			return nil, fmt.Errorf("after the final restart: %w", err)
		}
		if err := ov.reg.Validate(ctx); err != nil {
			return nil, fmt.Errorf("validate after the final restart: %w", err)
		}
	}
	return r.res, nil
}

// warmupReads is how many read operations from the head of the
// script run, checked but untimed, before the measured phase, so that
// pooled connections and caches are warm when timing starts.
const warmupReads = 200

// warmup replays the first warmupReads read operations of the script.
// Reads leave the catalogue as it is, so the measured phase still
// starts from the set-up state.
func (r *runner) warmup(ctx context.Context) {
	sc := r.in.script
	for i, n := 0, 0; i < len(sc) && n < warmupReads; i++ {
		if sc[i].kind.isRead() {
			r.do(ctx, &sc[i])
			n++
		}
	}
}

// phase runs the measured phase: the whole script, timed, and traced
// on a traced run.
func (r *runner) phase(ctx context.Context) {
	if r.tr != nil {
		r.tr.on.Store(true)
		defer r.tr.on.Store(false)
	}
	start := time.Now()
	for i := range r.in.script {
		o := &r.in.script[i]
		if d, ok := r.do(ctx, o); ok {
			r.res.lat[o.kind] = append(r.res.lat[o.kind], d)
			r.res.done++
		}
	}
	r.res.wall = time.Since(start)
}

// do runs and checks one operation and returns its latency, or false
// when it failed. While tracing is on, the call is wrapped in a
// dlpt-layer span whose id the engine spans take as their parent.
func (r *runner) do(ctx context.Context, o *op) (time.Duration, bool) {
	r.res.attempted++
	var sp *span
	tr := r.tr
	if tr != nil && tr.on.Load() {
		sp = &span{name: "dlpt." + string(o.kind), id: tr.ids.Add(1), op: tr.ids.Add(1)}
		ctx = withOp(ctx, opRef{op: sp.op, parent: sp.id})
		sp.start = tr.now()
	}
	d, n, err := r.exec(ctx, o)
	if sp != nil {
		sp.end = tr.now()
		sp.n1 = n
		tr.record(*sp)
	}
	if err != nil {
		r.res.fail(fmt.Errorf("%s %s: %w", o.kind, describe(o), err))
		return 0, false
	}
	return d, true
}

func describe(o *op) string {
	switch o.kind {
	case opRange:
		return fmt.Sprintf("[%q,%q]", o.lo, o.hi)
	case opFind:
		return fmt.Sprintf("%+v", o.preds)
	case opResReg, opResUnreg:
		return o.res.ID
	}
	return fmt.Sprintf("%q %q", o.key, o.val)
}

// exec issues one operation through the public API, times the call and
// checks its answer. n is the number of results a Find returned.
func (r *runner) exec(ctx context.Context, o *op) (d time.Duration, n int, err error) {
	reg := r.ov.reg
	var start time.Time
	switch o.kind {
	case opDiscover:
		start = time.Now()
		svc, found, err := reg.Discover(ctx, o.key)
		d = time.Since(start)
		if err != nil {
			return d, 0, err
		}
		return d, 0, r.checkDiscover(o.key, svc, found)

	case opRegister:
		start = time.Now()
		err = reg.Register(ctx, o.key, o.val)
		d = time.Since(start)
		if err == nil {
			r.live.add(o.key, o.val)
		}
		return d, 0, err

	case opUnregister:
		start = time.Now()
		ok, err := reg.Unregister(ctx, o.key, o.val)
		d = time.Since(start)
		if err != nil {
			return d, 0, err
		}
		if !ok {
			return d, 0, errors.New("registration not found")
		}
		r.live.remove(o.key, o.val)
		return d, 0, nil

	case opComplete, opRange:
		seq := reg.CompleteSeq(ctx, o.key, o.limit)
		want := r.live.complete(o.key, o.limit)
		if o.kind == opRange {
			seq = reg.RangeSeq(ctx, o.lo, o.hi, o.limit)
			want = r.live.rangeKeys(o.lo, o.hi, o.limit)
		}
		var got []string
		start = time.Now()
		for k, err := range seq {
			if err != nil {
				return time.Since(start), 0, err
			}
			got = append(got, k)
		}
		d = time.Since(start)
		return d, 0, checkEqual(string(o.kind), got, want)

	case opFirst:
		var got []string
		start = time.Now()
		for k, err := range reg.CompleteSeq(ctx, o.key, 0) {
			if err != nil {
				return time.Since(start), 0, err
			}
			got = append(got, k)
			break
		}
		d = time.Since(start)
		return d, 0, checkEqual("first result", got, r.live.complete(o.key, 1))

	case opFind:
		start = time.Now()
		ids, _, err := r.ov.dir.Find(ctx, o.preds...)
		d = time.Since(start)
		if err != nil {
			return d, 0, err
		}
		return d, len(ids), checkEqual("find", ids, r.live.find(o.preds))

	case opResReg:
		start = time.Now()
		err = r.ov.dir.RegisterResource(ctx, o.res)
		d = time.Since(start)
		if err == nil {
			r.live.addResource(o.res)
		}
		return d, 0, err

	case opResUnreg:
		start = time.Now()
		ok, err := r.ov.dir.UnregisterResource(ctx, o.res.ID)
		d = time.Since(start)
		if err != nil {
			return d, 0, err
		}
		if !ok {
			return d, 0, errors.New("resource not found")
		}
		r.live.removeResource(o.res.ID)
		return d, 0, nil

	case opJoin:
		start = time.Now()
		id, err := reg.AddPeerWithCapacity(ctx, 1<<20)
		d = time.Since(start)
		if err == nil && id == "" {
			err = errors.New("no peer id")
		}
		return d, 0, err

	case opLeave, opCrash:
		peers, err := reg.Peers(ctx)
		if err != nil {
			return 0, 0, err
		}
		id := peers[o.pick%len(peers)].ID
		start = time.Now()
		if o.kind == opLeave {
			err = reg.RemovePeer(ctx, id)
		} else {
			err = reg.CrashPeer(ctx, id)
		}
		return time.Since(start), 0, err

	case opRecover:
		start = time.Now()
		rep, err := reg.Recover(ctx)
		d = time.Since(start)
		if err == nil && (rep.Lost != 0 || len(rep.LostKeys) != 0) {
			err = fmt.Errorf("crash right after a tick lost %d keys %.80q", rep.Lost, rep.LostKeys)
		}
		return d, 0, err

	case opReplicate:
		start = time.Now()
		nodes, err := reg.Replicate(ctx)
		d = time.Since(start)
		if err == nil && nodes == 0 {
			err = errors.New("replicated no nodes")
		}
		return d, 0, err
	}
	return 0, 0, fmt.Errorf("unknown operation kind %q", o.kind)
}

// checkDiscover compares a discovery with the model: exactly the
// model's endpoints, in order. Physical hops never exceed logical hops,
// except that the tcp engine also counts the client's frame to the
// entry peer as a physical hop (and no tree edge), so there they may
// exceed them by one; such discoveries are counted and printed.
func (r *runner) checkDiscover(key string, svc dlpt.Service, found bool) error {
	r.res.discoveries++
	if svc.PhysicalHops > svc.LogicalHops {
		if r.kind != dlpt.EngineTCP || svc.PhysicalHops > svc.LogicalHops+1 {
			return fmt.Errorf("%d physical hops exceed %d logical hops", svc.PhysicalHops, svc.LogicalHops)
		}
		r.res.entryHop++
	}
	want := r.live.eps[key]
	if len(want) == 0 {
		if found {
			return fmt.Errorf("found an undeclared key with %q", svc.Endpoints)
		}
		return nil
	}
	if !found {
		return errors.New("declared key not found")
	}
	return checkEqual("endpoints", svc.Endpoints, want)
}

// checkPushdown checks that limit-10 completions visit far fewer nodes
// than the full walk of the same prefix, on the prefixes of the corpus
// with the most matches.
func checkPushdown(ctx context.Context, reg *dlpt.Registry, m *model) error {
	for _, prefix := range []string{"d", "s", "z", "pd", "cg"} {
		if len(m.complete(prefix, 0)) < 200 {
			continue
		}
		var visited [2]int
		for i, limit := range []int{10, 0} {
			st, err := drainStats(ctx, reg.Engine(), engine.Query{Kind: engine.QueryComplete, Prefix: prefix, Limit: limit})
			if err != nil {
				return err
			}
			if st.PhysicalHops > st.LogicalHops {
				return fmt.Errorf("stream %q: physical hops %d exceed logical %d", prefix, st.PhysicalHops, st.LogicalHops)
			}
			visited[i] = st.NodesVisited
		}
		if visited[0]*10 > visited[1] {
			return fmt.Errorf("limit-10 completion of %q visited %d nodes, the full walk %d", prefix, visited[0], visited[1])
		}
	}
	return nil
}

func drainStats(ctx context.Context, e engine.Engine, q engine.Query) (engine.QueryStats, error) {
	s, err := e.Query(ctx, q)
	if err != nil {
		return engine.QueryStats{}, err
	}
	defer s.Close()
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	return s.Stats(), s.Err()
}
