// Command perfbench is the repository's benchmark. It drives the public
// dlpt Registry and Directory API through one of three seeded
// workloads, checks every answer against its own model of the
// catalogue, and prints the end-to-end metrics, or with --trace 1 the
// per-layer metrics, as the last line of its output:
//
//	bash perfbench/run.sh --workload lookup|query|churn --seed N --seconds S --trace 0|1
//
// Every input is generated from --seed before timing starts. A run
// executes a fixed script of seconds x (the workload's nominal rate)
// operations, so every run of one seed does the same work on any host.
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"dlpt"
)

func main() {
	// One P for the whole process, overlay and client alike. With more,
	// each peer crossing of a tcp discovery either finds a spinning
	// thread or wakes an idle one, and on a shared 2-vCPU host the share
	// of slow wake-ups changed from run to run: the discovery latency had
	// two modes (about 65 us and 120 us on the same three-peer path) and
	// its median fell in the gap between them, moving by about 20%
	// between runs of one seed. See README.md.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the last line of the output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// settings are the command's flags.
type settings struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	// shrink replaces the shipped workload sizes (tests run small).
	shrink func(config) config
	// corrupt installs the answer-corrupting engine decorator.
	corrupt corruption
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var s settings
	var trace int
	fs.StringVar(&s.workload, "workload", "", "workload: lookup, query or churn")
	fs.Int64Var(&s.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&s.seconds, "seconds", 10, "nominal length of the measured phase; the script length scales with it")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&s.workdir, "workdir", ".bench_build/work", "directory for durable overlays and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := configs[s.workload]; !ok || s.seconds < 1 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload lookup|query|churn and --seconds >= 1\n")
		return 2
	}
	s.trace = trace == 1
	rep, err := bench(context.Background(), s, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func (s settings) config(name string) config {
	cfg := configs[name]
	if s.shrink != nil {
		cfg = s.shrink(cfg)
	}
	return cfg
}

// bench runs the selected workload and returns its report.
func bench(ctx context.Context, s settings, out io.Writer) (*report, error) {
	if s.trace {
		return traceBench(ctx, s, out)
	}
	cfg := s.config(s.workload)
	in := genInputs(cfg, s.seed, s.seconds*cfg.opsPerSecond)
	res, err := runWorkload(ctx, cfg, in, runOpts{setups: cfg.setups, workdir: s.workdir, corrupt: s.corrupt})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.name, err)
	}
	printResult(out, cfg, res)
	m := endToEndMetrics(res)
	for _, e := range endToEnd {
		fmt.Fprintf(out, "# %s %s = %.6g %s\n", cfg.name, e.name, m[e.name].Value, e.unit)
	}
	return &report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}, nil
}

func printResult(out io.Writer, cfg config, res *result) {
	fmt.Fprintf(out, "# %s: %d peers on %s, %d declared keys, one client; attempted %d, failed %d, measured %.2fs\n",
		cfg.name, cfg.peers, cfg.engine, res.keys, res.attempted, res.failed, res.wall.Seconds())
	if res.discoveries > 0 {
		fmt.Fprintf(out, "# %s: %d of %d discoveries report one physical hop more than logical hops\n",
			cfg.name, res.entryHop, res.discoveries)
	}
	for _, e := range res.errs {
		fmt.Fprintf(out, "# FAILED %s\n", e)
	}
	setups := make([]string, len(res.setup))
	for i, d := range res.setup {
		setups[i] = fmt.Sprintf("%.3fs", d.Seconds())
	}
	fmt.Fprintf(out, "# %s set-ups %v\n", cfg.name, setups)
	printKinds(out, cfg.name, res)
}

// traceOrder is where a per-layer metric the selected workload does
// not yield is read from: the first workload in this order that
// yields it.
var traceOrder = []string{"lookup", "query", "churn"}

// traceShare divides the script length of a traced run. It replays
// every workload on two engines, and the selected one twice more
// untraced; at --seconds 15 it took about 90 s, half the time a run
// may take.
const traceShare = 8

// traceBench is the per-layer run. Every workload is replayed traced,
// at an eighth of the script length, on its own engine and on the local
// engine, because no single workload crosses every layer. Each per-layer metric
// is read from the selected workload when it yields it, else from the
// first workload of traceOrder that does. The selected workload also
// runs untraced, without the engine decorator, right before and right
// after its traced run, which gives the tracing overhead.
func traceBench(ctx context.Context, s settings, out io.Writer) (*report, error) {
	rep := &report{Metrics: make(map[string]metric)}
	layers := make(map[string]map[string]float64)
	for _, name := range traceOrder {
		cfg := s.config(name)
		in := genInputs(cfg, s.seed, max(s.seconds*cfg.opsPerSecond/traceShare, 1))
		base := runOpts{setups: 1, workdir: s.workdir, corrupt: s.corrupt}
		engTr, coreTr := newTracer(), newTracer()
		traced, local := base, base
		traced.tracer = engTr
		local.engine, local.tracer = dlpt.EngineLocal, coreTr
		var results []*result
		run := func(what string, opts runOpts) (*result, error) {
			res, err := runWorkload(ctx, cfg, in, opts)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, what, err)
			}
			results = append(results, res)
			return res, nil
		}
		selected := name == s.workload
		var plain []*result
		untraced := func() error {
			if !selected {
				return nil
			}
			p, err := run("untraced", base)
			plain = append(plain, p)
			return err
		}
		if err := untraced(); err != nil {
			return nil, err
		}
		eng, err := run("traced", traced)
		if err != nil {
			return nil, err
		}
		if err := untraced(); err != nil {
			return nil, err
		}
		core, err := run("on the local engine", local)
		if err != nil {
			return nil, err
		}
		printResult(out, cfg, eng)
		for _, r := range results {
			rep.Attempted += r.attempted
			rep.Failed += r.failed
		}
		layers[name] = layerMetrics(cfg.engine, eng, core, engTr.spans, coreTr.spans)
		if selected {
			layers[name]["trace.overhead_pct"] = traceOverhead(out, name, eng, plain[0], plain[1])
		}
		for i, tr := range []*tracer{engTr, coreTr} {
			path := filepath.Join(s.workdir, "spans", fmt.Sprintf("%s-%s-seed%d-%d.tsv", s.workload, name, s.seed, i))
			if err := tr.dump(path); err != nil {
				return nil, err
			}
		}
	}
	var missing []string
	for _, pl := range perLayer {
		src := s.workload
		v, ok := layers[src][pl.name]
		for _, name := range traceOrder {
			if ok {
				break
			}
			src = name
			v, ok = layers[name][pl.name]
		}
		if !ok {
			missing = append(missing, pl.name)
			continue
		}
		rep.Metrics[pl.name] = metric{Value: v, Unit: pl.unit}
		fmt.Fprintf(out, "# %-45s %12.4f %-5s (from %s)\n", pl.name, v, pl.unit, src)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("traced run yielded no value for %v", missing)
	}
	rep.Correct = rep.Failed == 0
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("traced run attempted nothing")
	}
	return rep, nil
}
