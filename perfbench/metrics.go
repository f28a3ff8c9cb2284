package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"dlpt"
	"dlpt/internal/catalog"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"mix_p50_geomean_us", "us"},
	{"heap_bytes_per_key", "B"},
}

// perLayer lists the per-layer metrics of a traced run, named after
// the layer (module) they measure.
var perLayer = []struct{ name, unit string }{
	{"dlpt.discover_us", "us"},
	{"dlpt.complete_us", "us"},
	{"dlpt.first_result_us", "us"},
	{"dlpt.range_us", "us"},
	{"dlpt.find_us", "us"},
	{"dlpt.register_us", "us"},
	{"dlpt.join_ms", "ms"},
	{"dlpt.leave_ms", "ms"},
	{"dlpt.replicate_ms", "ms"},
	{"dlpt.recover_ms", "ms"},
	{"dlpt.restart_ms", "ms"},
	{"dlpt.self_us", "us"},
	{"engine.discover_us", "us"},
	{"engine.query_open_us", "us"},
	{"engine.first_next_us", "us"},
	{"engine.stream_close_us", "us"},
	{"engine.replicate_ms", "ms"},
	{"engine.recover_ms", "ms"},
	{"core.discover_us", "us"},
	{"core.complete_us", "us"},
	{"core.first_result_us", "us"},
	{"core.replicate_ms", "ms"},
	{"core.recover_ms", "ms"},
	{"core.join_ms", "ms"},
	{"core.logical_hops_per_discover", "hops"},
	{"core.physical_hops_per_discover", "hops"},
	{"core.nodes_visited_per_complete", "nodes"},
	{"core.nodes_visited_per_first_result", "nodes"},
	{"core.replica_transfers_per_topology_change", "msgs"},
	{"transport.hop_us", "us"},
	{"transport.stream_overhead_us", "us"},
	{"live.hop_us", "us"},
	{"attrs.self_us", "us"},
	{"attrs.engine_calls_per_find", "calls"},
	{"attrs.ids_per_result", "ratio"},
	{"catalog.encode_ms", "ms"},
	{"catalog.decode_ms", "ms"},
	{"catalog.bytes_per_key", "B"},
	{"persist.snapshot_bytes_per_key", "B"},
	{"persist.journal_bytes_per_write", "B"},
	{"trace.overhead_pct", "%"},
}

// quantile returns the q-quantile of ds (nearest rank on a sorted
// copy).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomeanP50 is the geometric mean of the medians of the kinds ok
// selects. Kinds weigh equally whatever their counts: a pooled median
// of two kinds issued one for one (Register and Unregister) falls in
// the gap between their distributions and jumps between them from run
// to run.
func geomeanP50(lat map[kind][]time.Duration, ok func(kind) bool) float64 {
	sum, n := 0.0, 0
	for k, ds := range lat {
		if ok(k) && len(ds) > 0 {
			sum += math.Log(us(quantile(ds, 0.5)))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// endToEndMetrics computes the end-to-end metrics of an untraced run.
func endToEndMetrics(res *result) map[string]metric {
	setups := make([]float64, len(res.setup))
	for i, d := range res.setup {
		setups[i] = d.Seconds()
	}
	all := func(kind) bool { return true }
	return map[string]metric{
		"setup_s":            {medianFloat(setups), "s"},
		"ops_per_s":          {opsPerSecond(res), "1/s"},
		"read_p50_us":        {geomeanP50(res.lat, kind.isRead), "us"},
		"write_p50_us":       {geomeanP50(res.lat, kind.isWrite), "us"},
		"mix_p50_geomean_us": {geomeanP50(res.lat, all), "us"},
		"heap_bytes_per_key": {medianFloat(res.heap) / float64(max(res.keys, 1)), "B"},
	}
}

// printKinds prints each operation kind's sample count, median and,
// where at least ten samples lie beyond it, p99 (else p90, else
// nothing).
func printKinds(w io.Writer, name string, res *result) {
	var ks []string
	for k := range res.lat {
		ks = append(ks, string(k))
	}
	sort.Strings(ks)
	for _, k := range ks {
		ds := res.lat[kind(k)]
		tail := "-"
		switch {
		case len(ds) >= 1000:
			tail = fmt.Sprintf("p99=%.1fus", us(quantile(ds, 0.99)))
		case len(ds) >= 100:
			tail = fmt.Sprintf("p90=%.1fus", us(quantile(ds, 0.90)))
		}
		fmt.Fprintf(w, "# %s %-20s n=%-7d p50=%.1fus %s\n", name, k, len(ds), us(quantile(ds, 0.5)), tail)
	}
}

// measureCatalogue times catalog.Append and catalog.Decode of the
// overlay's whole catalogue with the LOUDS codec (medians of five).
func measureCatalogue(ctx context.Context, reg *dlpt.Registry, layer map[string]float64) error {
	tree, err := reg.Engine().Snapshot(ctx)
	if err != nil {
		return err
	}
	var entries []catalog.Entry
	for _, k := range tree.Keys() {
		n, ok := tree.Lookup(k)
		if !ok || !n.HasData() {
			continue
		}
		e := catalog.Entry{Key: string(k)}
		for v := range n.Data {
			e.Values = append(e.Values, v)
		}
		sort.Strings(e.Values)
		entries = append(entries, e)
	}
	var enc, dec []time.Duration
	var buf []byte
	for i := 0; i < 5; i++ {
		start := time.Now()
		buf = catalog.Append(nil, catalog.LOUDS, entries, catalog.SecValues)
		enc = append(enc, time.Since(start))
		start = time.Now()
		got, _, err := catalog.Decode(buf)
		dec = append(dec, time.Since(start))
		if err != nil {
			return fmt.Errorf("catalog decode: %w", err)
		}
		if len(got) != len(entries) {
			return fmt.Errorf("catalog round trip: %d entries, want %d", len(got), len(entries))
		}
	}
	layer["catalog.encode_ms"] = ms(quantile(enc, 0.5))
	layer["catalog.decode_ms"] = ms(quantile(dec, 0.5))
	layer["catalog.bytes_per_key"] = float64(len(buf)) / float64(max(len(entries), 1))
	return nil
}

// journalWrites is how many writes measureJournal journals.
const journalWrites = 200

// measureJournal reads the persistence directory: the newest
// snapshot's size per declared key after a fresh tick, and the size of
// the journal that journalWrites registrations and unregistrations
// append after it.
func measureJournal(ctx context.Context, reg *dlpt.Registry, dir string, m *model, layer map[string]float64) error {
	if _, err := reg.Replicate(ctx); err != nil {
		return err
	}
	snap, err := newestFile(dir, "snapshot-%d.snap")
	if err != nil {
		return err
	}
	layer["persist.snapshot_bytes_per_key"] = float64(snap) / float64(len(m.eps))
	ks := m.keys
	for i := 0; i < journalWrites/2; i++ {
		k, v := ks[i*len(ks)/(journalWrites/2)], fmt.Sprintf("journal-%04d:1", i)
		if err := reg.Register(ctx, k, v); err != nil {
			return err
		}
		if ok, err := reg.Unregister(ctx, k, v); err != nil || !ok {
			return fmt.Errorf("journal probe unregister %q: %v %v", k, ok, err)
		}
	}
	jrnl, err := newestFile(dir, "journal-%d.log")
	if err != nil {
		return err
	}
	layer["persist.journal_bytes_per_write"] = float64(jrnl) / journalWrites
	return nil
}

// newestFile returns the size of the file of the highest sequence
// number matching pattern in dir.
func newestFile(dir, pattern string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	best, size := int64(-1), int64(0)
	for _, e := range ents {
		var seq int64
		if _, err := fmt.Sscanf(e.Name(), pattern, &seq); err != nil || seq <= best {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		best, size = seq, info.Size()
	}
	if best < 0 {
		return 0, fmt.Errorf("no file %q in %s", pattern, dir)
	}
	return size, nil
}

// spanIndex groups a traced run's spans for the per-layer metrics.
type spanIndex struct {
	api      []*span           // dlpt-layer spans
	kindOf   map[int64]string  // op id -> operation kind
	children map[int64][]*span // api span id -> engine spans
	byName   map[string][]*span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{kindOf: make(map[int64]string), children: make(map[int64][]*span),
		byName: make(map[string][]*span)}
	for i := range spans {
		s := &spans[i]
		ix.byName[s.name] = append(ix.byName[s.name], s)
		if kind, ok := strings.CutPrefix(s.name, "dlpt."); ok {
			ix.api = append(ix.api, s)
			ix.kindOf[s.op] = kind
		} else {
			ix.children[s.parent] = append(ix.children[s.parent], s)
		}
	}
	return ix
}

// durs returns the durations of the spans called name, restricted to
// operations of the given kind when kind is not empty.
func (ix *spanIndex) durs(name, kind string) []time.Duration {
	var out []time.Duration
	for _, s := range ix.byName[name] {
		if kind == "" || ix.kindOf[s.op] == kind {
			out = append(out, s.dur())
		}
	}
	return out
}

// mean of counter f over the spans called name (of the given kind).
func (ix *spanIndex) mean(name, kind string, f func(*span) int) (float64, bool) {
	sum, n := 0, 0
	for _, s := range ix.byName[name] {
		if kind == "" || ix.kindOf[s.op] == kind {
			sum += f(s)
			n++
		}
	}
	return float64(sum) / float64(max(n, 1)), n > 0
}

// putP50 stores the median of ds in m under name, scaled by unit, when
// there are samples.
func putP50(m map[string]float64, name string, ds []time.Duration, unit func(time.Duration) float64) {
	if len(ds) > 0 {
		m[name] = unit(quantile(ds, 0.5))
	}
}

// layerMetrics derives the per-layer metrics one workload yields from
// its traced run on its own engine (eng) and its replay on the local
// engine (core).
func layerMetrics(engName dlpt.EngineKind, eng, core *result, engSpans, coreSpans []span) map[string]float64 {
	m := make(map[string]float64)
	for k, v := range eng.layer {
		m[k] = v
	}
	ex, cx := indexSpans(engSpans), indexSpans(coreSpans)

	for _, k := range []string{"discover", "complete", "first_result", "range", "find"} {
		putP50(m, "dlpt."+k+"_us", ex.durs("dlpt."+k, ""), us)
	}
	writes := make(map[kind][]time.Duration)
	for _, k := range []kind{opRegister, opUnregister, opResReg, opResUnreg} {
		writes[k] = ex.durs("dlpt."+string(k), "")
	}
	if v := geomeanP50(writes, kind.isWrite); v > 0 {
		m["dlpt.register_us"] = v
	}
	for _, k := range []string{"join", "leave", "replicate", "recover", "restart"} {
		putP50(m, "dlpt."+k+"_ms", ex.durs("dlpt."+k, ""), ms)
	}
	var self, attrsSelf []time.Duration
	calls, fetched, returned, finds := 0, 0, 0, 0
	for _, s := range ex.api {
		kids := ex.children[s.id]
		switch s.name {
		case "dlpt.restart":
		case "dlpt.find":
			attrsSelf = append(attrsSelf, selfTime(s, kids))
			finds++
			returned += s.n1
			for _, c := range kids {
				switch c.name {
				case "engine.discover":
					calls++
					fetched += c.n3
				case "engine.query_open":
					calls++
				}
			}
		default:
			self = append(self, selfTime(s, kids))
		}
	}
	putP50(m, "dlpt.self_us", self, us)
	putP50(m, "attrs.self_us", attrsSelf, us)
	if finds > 0 {
		m["attrs.engine_calls_per_find"] = float64(calls) / float64(finds)
		m["attrs.ids_per_result"] = float64(fetched) / float64(max(returned, 1))
	}

	putP50(m, "engine.discover_us", ex.durs("engine.discover", ""), us)
	putP50(m, "engine.query_open_us", ex.durs("engine.query_open", "first_result"), us)
	putP50(m, "engine.first_next_us", ex.durs("engine.first_next", "first_result"), us)
	putP50(m, "engine.stream_close_us", ex.durs("engine.stream_close", "first_result"), us)
	putP50(m, "engine.replicate_ms", ex.durs("engine.replicate", ""), ms)
	putP50(m, "engine.recover_ms", ex.durs("engine.recover", ""), ms)

	putP50(m, "core.discover_us", cx.durs("engine.discover", ""), us)
	putP50(m, "core.complete_us", cx.durs("engine.stream", "complete"), us)
	putP50(m, "core.first_result_us", cx.durs("engine.stream", "first_result"), us)
	putP50(m, "core.replicate_ms", cx.durs("engine.replicate", ""), ms)
	putP50(m, "core.recover_ms", cx.durs("engine.recover", ""), ms)
	putP50(m, "core.join_ms", cx.durs("engine.join", ""), ms)
	if v, ok := cx.mean("engine.discover", "", func(s *span) int { return s.n1 }); ok {
		m["core.logical_hops_per_discover"] = v
		m["core.physical_hops_per_discover"], _ = cx.mean("engine.discover", "", func(s *span) int { return s.n2 })
	}
	if v, ok := cx.mean("engine.stream", "complete", func(s *span) int { return s.n1 }); ok {
		m["core.nodes_visited_per_complete"] = v
	}
	if v, ok := cx.mean("engine.stream", "first_result", func(s *span) int { return s.n1 }); ok {
		m["core.nodes_visited_per_first_result"] = v
	}
	if core.topology > 0 {
		m["core.replica_transfers_per_topology_change"] = float64(core.transfers) / float64(core.topology)
	}

	// The wire (or mailbox) cost of one physical hop: what the engine's
	// discovery costs beyond the same discovery on the bare core, per
	// peer crossing.
	hop := "transport.hop_us"
	if engName == dlpt.EngineLive {
		hop = "live.hop_us"
	}
	if phys, ok := ex.mean("engine.discover", "", func(s *span) int { return s.n2 }); ok && phys > 0 {
		if e, c := m["engine.discover_us"], m["core.discover_us"]; c > 0 {
			m[hop] = (e - c) / phys
		}
	}
	if engName == dlpt.EngineTCP {
		e, c := ex.durs("engine.stream", "first_result"), cx.durs("engine.stream", "first_result")
		if len(e) > 0 && len(c) > 0 {
			m["transport.stream_overhead_us"] = us(quantile(e, 0.5)) - us(quantile(c, 0.5))
		}
	}
	return m
}

func opsPerSecond(res *result) float64 { return float64(res.done) / res.wall.Seconds() }

// traceOverhead is how much lower, in percent, the traced run's
// ops_per_s is than the mean of the two untraced runs around it. The
// untraced runs' own difference is printed beside it: an overhead
// smaller than that is not resolved on the host.
func traceOverhead(out io.Writer, name string, traced, before, after *result) float64 {
	t, b, a := opsPerSecond(traced), opsPerSecond(before), opsPerSecond(after)
	plain := (b + a) / 2
	pct := (plain - t) / plain * 100
	noise := math.Abs(b-a) / plain * 100
	verdict := "resolved"
	if math.Abs(pct) <= noise {
		verdict = "unresolved: within the untraced runs' own difference"
	}
	fmt.Fprintf(out, "# %s trace overhead %.2f%% (traced %.1f ops/s, untraced %.1f and %.1f ops/s, %.2f%% apart): %s\n",
		name, pct, t, b, a, noise, verdict)
	return pct
}
