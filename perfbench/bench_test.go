package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// small shrinks a workload to test scale.
func small(cfg config) config {
	cfg.peers = 8
	cfg.keys = 2_000
	if cfg.resources > 0 {
		cfg.resources = 200
	}
	cfg.opsPerSecond = 600
	if cfg.durable {
		cfg.opsPerSecond = 150
	}
	cfg.setups = 1
	return cfg
}

func runSmall(t *testing.T, workload string, trace bool, c corruption) *report {
	t.Helper()
	var out bytes.Buffer
	s := settings{workload: workload, seed: 7, seconds: 1, trace: trace, workdir: t.TempDir(),
		shrink: small, corrupt: c}
	rep, err := bench(context.Background(), s, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if testing.Verbose() {
		t.Logf("%s", out.String())
	}
	return rep
}

// TestWorkloads runs every workload at small scale: no operation may
// fail and every end-to-end metric must be reported and positive.
func TestWorkloads(t *testing.T) {
	for _, w := range []string{"lookup", "query", "churn"} {
		t.Run(w, func(t *testing.T) {
			rep := runSmall(t, w, false, corruptNone)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, e := range endToEnd {
				m, ok := rep.Metrics[e.name]
				if !ok || m.Unit != e.unit || !(m.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", e.name, m, e.unit)
				}
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(rep.Metrics), len(endToEnd))
			}
		})
	}
}

// TestTraced runs the per-layer pass at small scale: it must report
// every per-layer metric and nothing else.
func TestTraced(t *testing.T) {
	rep := runSmall(t, "lookup", true, corruptNone)
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", rep.Correct, rep.Failed)
	}
	for _, pl := range perLayer {
		if _, ok := rep.Metrics[pl.name]; !ok {
			t.Errorf("per-layer metric %s missing", pl.name)
		}
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(perLayer))
	}
}

// TestCorruptedAnswersFail shows the checks catch wrong answers: an
// engine decorator that drops an endpoint, skips a stream key or adds
// a stale Find id must make operations fail.
func TestCorruptedAnswersFail(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload string
		c        corruption
	}{
		{"drop endpoint", "lookup", corruptDropEndpoint},
		{"drop endpoint on churn", "churn", corruptDropEndpoint},
		{"skip stream key", "query", corruptSkipKey},
		{"stale find id", "query", corruptStaleID},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := runSmall(t, tc.workload, false, tc.c)
			if rep.Failed == 0 || rep.Correct {
				t.Fatalf("corrupted engine: correct=%v failed=%d of %d, want failures",
					rep.Correct, rep.Failed, rep.Attempted)
			}
		})
	}
}

// TestOutputContract checks the command line: the last line is the
// JSON report, and a bad workload is refused without one.
func TestOutputContract(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("bad workload: exit %d, output %q", code, out.String())
	}
	rep := runSmall(t, "lookup", false, corruptNone)
	line, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("report lacks %q: %s", k, line)
		}
	}
	if len(back) != 4 || strings.Contains(string(line), "\n") {
		t.Errorf("report is not one line of exactly four keys: %s", line)
	}
}

// TestSeedDeterminesInputs checks that one seed gives one set of
// inputs and another seed another.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range []string{"lookup", "query", "churn"} {
		cfg := small(configs[w])
		a, b, c := genInputs(cfg, 3, 500), genInputs(cfg, 3, 500), genInputs(cfg, 4, 500)
		if !sameScript(a.script, b.script) {
			t.Errorf("%s: the same seed gave different scripts", w)
		}
		if sameScript(a.script, c.script) {
			t.Errorf("%s: different seeds gave the same scripts", w)
		}
	}
}

func sameScript(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.kind != y.kind || x.key != y.key || x.val != y.val || x.lo != y.lo || x.pick != y.pick || x.res.ID != y.res.ID {
			return false
		}
	}
	return true
}
