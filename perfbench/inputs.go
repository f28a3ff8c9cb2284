package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dlpt"
	"dlpt/internal/workload"
)

// kind names one operation kind of a script. Its string is the kind's
// name in the per-kind report and in the dlpt-layer span names.
type kind string

const (
	opDiscover   kind = "discover"
	opRegister   kind = "register"
	opUnregister kind = "unregister"
	opComplete   kind = "complete"
	opFirst      kind = "first_result"
	opRange      kind = "range"
	opFind       kind = "find"
	opResReg     kind = "register_resource"
	opResUnreg   kind = "unregister_resource"
	opJoin       kind = "join"
	opLeave      kind = "leave"
	opReplicate  kind = "replicate"
	opCrash      kind = "crash"
	opRecover    kind = "recover"
)

// isRead reports whether k counts towards read_p50_us.
func (k kind) isRead() bool {
	switch k {
	case opDiscover, opComplete, opFirst, opRange, opFind:
		return true
	}
	return false
}

// isWrite reports whether k counts towards write_p50_us: one
// Register/Unregister or RegisterResource/UnregisterResource call.
func (k kind) isWrite() bool {
	switch k {
	case opRegister, opUnregister, opResReg, opResUnreg:
		return true
	}
	return false
}

// op is one scripted operation. Which fields are set depends on kind.
type op struct {
	kind  kind
	key   string // discover, register, unregister; prefix of complete and first_result
	val   string // endpoint of register and unregister
	lo    string // range
	hi    string // range
	limit int    // complete, range
	preds []dlpt.Where
	res   dlpt.Resource // register_resource; unregister_resource uses res.ID
	pick  int           // leave, crash: index into the ring, modulo its size
}

// config sizes one workload.
type config struct {
	name      string
	engine    dlpt.EngineKind
	peers     int
	keys      int // grid-routine corpus size
	resources int // multi-attribute resources (query)
	// opsPerSecond is the nominal rate that sizes the script: a run
	// executes seconds*opsPerSecond operations whatever the host's
	// speed, so every run of one seed does the same work.
	opsPerSecond int
	setups       int  // set-ups per run; setup_s is their median
	durable      bool // churn: WithPersistence plus a cold restart in set-up
}

// configs are the shipped workloads. The rates are chosen so that a
// run's measured phase lasts about --seconds on one CPU of a 2-vCPU
// x86-64 host (run.sh pins the benchmark to one CPU).
// Every workload is driven by one closed-loop client.
var configs = map[string]config{
	"lookup": {name: "lookup", engine: dlpt.EngineTCP, peers: 32, keys: 100_000,
		opsPerSecond: 16_000, setups: 5},
	"query": {name: "query", engine: dlpt.EngineTCP, peers: 32, keys: 100_000, resources: 2_000,
		opsPerSecond: 1_600, setups: 5},
	"churn": {name: "churn", engine: dlpt.EngineLive, peers: 32, keys: 20_000,
		opsPerSecond: 700, setups: 9, durable: true},
}

// inputs is everything a run needs, generated from the seed before any
// timing starts.
type inputs struct {
	corpus    []dlpt.Registration // grid-routine keys with their endpoints
	resources []dlpt.Resource     // query only
	script    []op
	model     *model
}

// genInputs builds the corpus, the resource table and the script of
// cfg from seed; nOps is the script length.
func genInputs(cfg config, seed int64, nOps int) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for _, k := range workload.GridCorpus(cfg.keys) {
		n := 1 + r.Intn(3)
		for j := 0; j < n; j++ {
			in.corpus = append(in.corpus, dlpt.Registration{Name: string(k), Endpoint: endpoint(r)})
		}
	}
	for i := 0; i < cfg.resources; i++ {
		in.resources = append(in.resources, genResource(r, fmt.Sprintf("res-%05d", i)))
	}
	in.model = newModel(in.corpus, in.resources)
	r = rand.New(rand.NewSource(seed*1_000_003 + 1))
	switch cfg.name {
	case "lookup":
		in.script = genLookup(r, in.model, nOps)
	case "query":
		in.script = genQuery(r, in.model, nOps)
	case "churn":
		in.script = genChurn(r, in.model, nOps)
	}
	return in
}

func endpoint(r *rand.Rand) string {
	return fmt.Sprintf("node-%04d.site%02d:%d", r.Intn(10_000), r.Intn(64), 2000+r.Intn(8000))
}

// The attribute domains of the query workload's resources. Attribute
// names start with an upper-case letter, so every "Attr=value" key
// sorts before the lower-case grid-routine keys and no completion or
// range page over routine names ever reaches the resource region.
var (
	archs  = []string{"arm64", "ppc64le", "riscv64", "x86_64"}
	oses   = []string{"freebsd-13", "freebsd-14", "linux-4.19", "linux-5.10", "linux-6.1", "solaris-11"}
	mems   = []string{"0004", "0008", "0016", "0032", "0064", "0128", "0256", "0512", "1024"}
	libs   = []string{"blas", "lapack", "s3l", "scalapack"}
	osPfx  = []string{"freebsd", "linux"}
	nSites = 32
)

func genResource(r *rand.Rand, id string) dlpt.Resource {
	return dlpt.Resource{ID: id, Attributes: map[string]string{
		"Arch": archs[r.Intn(len(archs))],
		"Os":   oses[r.Intn(len(oses))],
		"Mem":  mems[r.Intn(len(mems))],
		"Lib":  libs[r.Intn(len(libs))],
		"Site": fmt.Sprintf("site-%02d", r.Intn(nSites)),
	}}
}

// genLookup is the paper's Section 4 request model: about 95% Discover
// on uniformly picked declared keys, the rest Register-then-Unregister
// pairs of a fresh endpoint, so the catalogue size stays fixed.
func genLookup(r *rand.Rand, m *model, n int) []op {
	s := make([]op, 0, n+1)
	fresh := 0
	for len(s) < n {
		k := m.keys[r.Intn(len(m.keys))]
		if r.Intn(40) == 0 {
			ep := fmt.Sprintf("fresh-%d:1", fresh)
			fresh++
			s = append(s, op{kind: opRegister, key: k, val: ep}, op{kind: opUnregister, key: k, val: ep})
			continue
		}
		s = append(s, op{kind: opDiscover, key: k})
	}
	return s
}

// genQuery is the browsing mix: drained limit-10 completions of short
// prefixes, one-key early-exit streams, bounded range pages, a small
// share of conjunctive Finds, and resource register/unregister pairs.
func genQuery(r *rand.Rand, m *model, n int) []op {
	s := make([]op, 0, n+1)
	fresh := 0
	routines := m.routineKeys
	prefix := func() string {
		k := routines[r.Intn(len(routines))]
		l := 2 + r.Intn(3)
		if l > len(k) {
			l = len(k)
		}
		return k[:l]
	}
	for len(s) < n {
		switch x := r.Intn(100); {
		case x < 40:
			s = append(s, op{kind: opComplete, key: prefix(), limit: 10})
		case x < 70:
			s = append(s, op{kind: opFirst, key: prefix()})
		case x < 95:
			i := r.Intn(len(routines))
			j := i + 20 + r.Intn(60)
			if j >= len(routines) {
				j = len(routines) - 1
			}
			s = append(s, op{kind: opRange, lo: routines[i], hi: routines[j], limit: 20})
		case x < 98:
			s = append(s, op{kind: opFind, preds: genPreds(r)})
		default:
			res := genResource(r, fmt.Sprintf("new-%05d", fresh))
			fresh++
			s = append(s, op{kind: opResReg, res: res}, op{kind: opResUnreg, res: res})
		}
	}
	return s
}

// genPreds draws a conjunction of an exact, a prefix and a range
// predicate.
func genPreds(r *rand.Rand) []dlpt.Where {
	i := r.Intn(len(mems))
	j := i + r.Intn(4)
	if j >= len(mems) {
		j = len(mems) - 1
	}
	return []dlpt.Where{
		{Attr: "Arch", Equals: archs[r.Intn(len(archs))]},
		{Attr: "Os", HasPrefix: osPfx[r.Intn(len(osPfx))]},
		{Attr: "Mem", Min: mems[i], Max: mems[j]},
	}
}

// churnRound is the number of Discover and write operations between two
// Replicate ticks of the churn script.
const churnRound = 100

// genChurn is the dynamic-platform script. Every round is a Replicate
// tick, a crash of a random peer right after it and its Recover, then
// churnRound Discovers and writes with two joins and one graceful leave
// interleaved, so the ring keeps its size. Writes register a fresh
// endpoint on a corpus key or on a fresh key, or unregister an earlier
// fresh registration. The model is advanced as the script is drawn, so
// every Discover targets a key declared at that point.
func genChurn(r *rand.Rand, m *model, n int) []op {
	type reg struct{ key, val string }
	var (
		s      = make([]op, 0, n+churnRound)
		live   = append([]string(nil), m.keys...)
		index  = make(map[string]int, len(live))
		count  = make(map[string]int)
		regs   []reg
		fresh  int
		addKey = func(k string) {
			if _, ok := index[k]; !ok {
				index[k] = len(live)
				live = append(live, k)
			}
		}
		dropKey = func(k string) {
			i := index[k]
			last := live[len(live)-1]
			live[i], index[last] = last, i
			live = live[:len(live)-1]
			delete(index, k)
		}
	)
	for i, k := range live {
		index[k] = i
	}
	for len(s) < n {
		s = append(s, op{kind: opReplicate}, op{kind: opCrash, pick: r.Intn(1 << 20)}, op{kind: opRecover})
		events := []kind{opJoin, opJoin, opLeave}
		at := make([]int, len(events))
		for i := range at {
			at[i] = r.Intn(churnRound)
		}
		for j := 0; j < churnRound; j++ {
			for i, e := range events {
				if at[i] == j {
					s = append(s, op{kind: e, pick: r.Intn(1 << 20)})
				}
			}
			switch x := r.Intn(100); {
			case x < 80:
				s = append(s, op{kind: opDiscover, key: live[r.Intn(len(live))]})
			case x < 90 || len(regs) == 0:
				k := live[r.Intn(len(live))]
				if r.Intn(3) == 0 {
					k = fmt.Sprintf("zz_churn_%06d", fresh)
				}
				v := fmt.Sprintf("fresh-%06d:1", fresh)
				fresh++
				addKey(k)
				count[k]++
				regs = append(regs, reg{k, v})
				s = append(s, op{kind: opRegister, key: k, val: v})
			default:
				i := r.Intn(len(regs))
				g := regs[i]
				regs[i] = regs[len(regs)-1]
				regs = regs[:len(regs)-1]
				count[g.key]--
				if count[g.key] == 0 && len(m.eps[g.key]) == 0 {
					dropKey(g.key)
				}
				s = append(s, op{kind: opUnregister, key: g.key, val: g.val})
			}
		}
	}
	return s
}

// attrKey is the tree key the directory declares for one attribute
// pair.
func attrKey(attr, value string) string { return attr + "=" + value }

func isAttrKey(k string) bool { return strings.Contains(k, "=") }

// sortedCopy returns a sorted copy of ss.
func sortedCopy(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}
