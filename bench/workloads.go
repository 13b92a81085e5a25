//go:build linux

package main

import (
	"math"
	"sort"
	"time"
)

// opKind is one request type the generator can emit. Every op is ONE
// request on the wire; transfer and batchget are atomic batches.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opAdd
	opCAS
	opTransfer // atomic batch: add +d to one ledger key, add -d to another
	opBatchGet // all-Get batch of every ledger key (snapshot path)
	opScan     // scan, limit=scanLimit
	nOpKinds
)

var opNames = [nOpKinds]string{"get", "put", "add", "cas", "transfer", "batchget", "scan"}

// isRead classifies an op for the read/update latency split.
func (k opKind) isRead() bool { return k == opGet || k == opBatchGet || k == opScan }

// Key-space layout. Workload keys are 0..keys-1; the ledger and the
// generator workers' witness keys live far above them so no workload op
// ever touches either by accident.
const (
	ledgerBase  = uint64(1) << 32
	ledgerKeys  = 64
	witnessBase = uint64(2) << 32
	scanLimit   = 1024
	// valueDomain keeps put values and CAS operands small, so a CAS has a
	// real chance of matching on keys no add has moved yet. A failed
	// compare is a valid outcome either way.
	valueDomain = 4
)

// ledgerInit is ledger key j's preload value; ledgerSum is the invariant
// every batchget must observe (mod 2^64): transfers move value between
// ledger keys but never create or destroy it.
func ledgerInit(j int) uint64 { return 1_000_000 + uint64(j)*7919 }

var ledgerSum = func() (s uint64) {
	for j := 0; j < ledgerKeys; j++ {
		s += ledgerInit(j)
	}
	return s
}()

// preloadVal is workload key k's value before any traffic.
func preloadVal(k uint64) uint64 { return k % valueDomain }

// spec is one workload: the server it boots, the traffic it sends and why
// it exists. Every number here is a constant of the benchmark; nothing is
// derived from the host at run time.
type spec struct {
	name string
	why  string
	// http selects the HTTP/JSON surface; otherwise the binary protocol.
	http bool
	// flags are the stmkvd flags beyond the listen addresses (and the WAL
	// directory, which is a per-run temp dir).
	flags []string
	wal   bool
	// tuned marks the workload whose server runs the online tuner.
	tuned bool
	// locks and gate repeat the -geometry and -admission flags for the
	// in-process server of the traced run.
	locks uint64
	gate  int
	keys  uint64
	theta float64
	// mix is the percentage of each op kind; sums to 100.
	mix [nOpKinds]int
	// rate is the open-loop arrival rate, requests per second.
	rate float64
	// setups is how many times the server is set up per run; setup_s is
	// the median. A small key space boots in milliseconds, so it needs
	// more repetitions to time repeatably.
	setups int
	// yardstickSetupS is what the yardstick's set-up (boot, this workload's
	// preload over this workload's surface, ready) took on the baseline
	// host, in seconds. setup_s is stmkvd's set-up time as a multiple of
	// the yardstick's, measured side by side, times this constant: seconds
	// on a host of the baseline's speed, whatever the host of the day does.
	yardstickSetupS float64
	// knownDefect, when set, names a defect of the program that this
	// workload trips at the commit that introduced the benchmark. Ledger
	// violations are then counted (core.ledger_violations) and reported,
	// but do not fail the run; every other check stays fatal. Clear it in
	// the change that fixes the defect.
	knownDefect string
	// window is the length of the open phase's accounting windows: long
	// enough that each holds ten samples beyond its p99.
	window time.Duration
	// traceN is how many requests of the stream the traced run replays.
	traceN int
}

var specs = []spec{
	{
		name:            "read-bin",
		why:             "uniform 95/5 get/put over 2^16 keys on 2^16 locks, binary protocol, no WAL, no tuner: codec, client, proto server and the read-only STM path do all the work",
		flags:           []string{"-autotune=false", "-geometry", "2^16,0,1"},
		locks:           1 << 16,
		keys:            65536,
		theta:           0,
		mix:             [nOpKinds]int{opGet: 95, opPut: 5},
		rate:            10000,
		setups:          7,
		yardstickSetupS: 0.016,
		window:          500 * time.Millisecond,
		traceN:          50000,
	},
	{
		name:            "write-wal",
		why:             "update-heavy mix with group-commit durability: WAL batching, the redo hook, the ticket wait and checkpoint cycles decide latency and goodput",
		flags:           []string{"-autotune=false", "-geometry", "2^16,0,1", "-durability", "group", "-wal-batch", "0", "-checkpoint-every", "3s"},
		wal:             true,
		locks:           1 << 16,
		keys:            65536,
		theta:           0.6,
		mix:             [nOpKinds]int{opGet: 20, opPut: 50, opAdd: 10, opCAS: 10, opTransfer: 10},
		rate:            10000,
		setups:          7,
		yardstickSetupS: 0.016,
		window:          500 * time.Millisecond,
		traceN:          5000,
	},
	{
		name:            "storm-tuned",
		why:             "the paper's experiment as traffic: 1024 hot keys over a 2^8 lock table with the tuner, CM and admission gate live, so conflicts and the controllers decide the result",
		flags:           []string{"-geometry", "2^8,0,1", "-admission", "64", "-period", "500ms", "-samples", "1", "-seed", "1"},
		tuned:           true,
		locks:           1 << 8,
		gate:            64,
		keys:            1024,
		theta:           0.99,
		mix:             [nOpKinds]int{opGet: 10, opAdd: 40, opCAS: 20, opTransfer: 30},
		rate:            12000,
		setups:          9,
		yardstickSetupS: 0.005,
		knownDefect: "hierarchical locking (h > 1, which the tuner walks into) loses updates under contention: " +
			"stmkvd -autotune=false -geometry 2^8,0,4 breaks the ledger invariant on this traffic in about one run in three",
		window: 500 * time.Millisecond,
		traceN: 50000,
	},
	{
		name:            "mixed-http",
		why:             "HTTP/JSON surface with snapshot scans and batch reads beside point writers: a binary-path gain that taxes commits, publication or the HTTP twin shows here as a loss",
		flags:           []string{"-autotune=false", "-geometry", "2^16,0,1"},
		http:            true,
		locks:           1 << 16,
		keys:            16384,
		theta:           0.9,
		mix:             [nOpKinds]int{opGet: 78, opPut: 15, opTransfer: 4, opBatchGet: 2, opScan: 1},
		rate:            1500,
		setups:          7,
		yardstickSetupS: 0.030,
		window:          time.Second,
		traceN:          20000,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// op is one generated request.
type op struct {
	kind opKind
	// key is the workload key (get/put/add/cas) or the first ledger index
	// (transfer); key2 is the second ledger index.
	key, key2 uint64
	// val is put's value, add's and transfer's delta, cas's new value.
	val, old uint64
}

// gen maps (workload, seed, index) to an op. It holds no mutable state, so
// any worker can generate any index and the stream is a pure function of
// its three inputs.
type gen struct {
	sp   *spec
	seed uint64
	// cum[k] is the cumulative mix percentage through kind k.
	cum [nOpKinds]int
	// cdf is the Zipf cumulative distribution over key ranks; nil when
	// theta is 0 (uniform).
	cdf []float64
}

func newGen(sp *spec, seed uint64) *gen {
	g := &gen{sp: sp, seed: mix64(seed ^ fnv64(sp.name))}
	c := 0
	for k := range sp.mix {
		c += sp.mix[k]
		g.cum[k] = c
	}
	if c != 100 {
		panic("bench: workload " + sp.name + " mix does not sum to 100")
	}
	if sp.theta > 0 {
		g.cdf = make([]float64, sp.keys)
		s := 0.0
		for i := range g.cdf {
			s += 1 / math.Pow(float64(i+1), sp.theta)
			g.cdf[i] = s
		}
		for i := range g.cdf {
			g.cdf[i] /= s
		}
	}
	return g
}

// mix64 is the SplitMix64 finalizer: a bijective scrambler good enough to
// turn a counter into independent-looking words.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// word returns the j-th random word of op i.
func (g *gen) word(i uint64, j uint64) uint64 { return mix64(g.seed ^ mix64(i*8+j)) }

func unit(w uint64) float64 { return float64(w>>11) / (1 << 53) }

// key draws a workload key with the spec's skew: rank r (0 hottest) is key
// r itself; the store hashes keys, so adjacency means nothing.
func (g *gen) key(w uint64) uint64 {
	if g.cdf == nil {
		return w % g.sp.keys
	}
	r := sort.SearchFloat64s(g.cdf, unit(w))
	if r >= len(g.cdf) {
		r = len(g.cdf) - 1
	}
	return uint64(r)
}

// at returns op i of the stream.
func (g *gen) at(i uint64) op {
	pct := int(g.word(i, 0) % 100)
	var k opKind
	for k = 0; k < nOpKinds-1 && pct >= g.cum[k]; k++ {
	}
	o := op{kind: k}
	switch k {
	case opGet:
		o.key = g.key(g.word(i, 1))
	case opPut:
		o.key = g.key(g.word(i, 1))
		o.val = g.word(i, 2) % valueDomain
	case opAdd:
		o.key = g.key(g.word(i, 1))
		o.val = 1 + g.word(i, 2)%3
	case opCAS:
		o.key = g.key(g.word(i, 1))
		o.old = g.word(i, 2) % valueDomain
		o.val = g.word(i, 3) % valueDomain
	case opTransfer:
		o.key = g.word(i, 1) % ledgerKeys
		o.key2 = (o.key + 1 + g.word(i, 2)%(ledgerKeys-1)) % ledgerKeys
		o.val = 1 + g.word(i, 3)%100
	}
	return o
}

// streamHash folds the first n ops into one word; the unit test pins it.
func (g *gen) streamHash(n int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < n; i++ {
		o := g.at(uint64(i))
		for _, v := range [...]uint64{uint64(o.kind), o.key, o.key2, o.val, o.old} {
			h = (h ^ v) * 1099511628211
		}
	}
	return h
}
