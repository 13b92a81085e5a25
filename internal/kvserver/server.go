// Package kvserver serves the STM-backed key-value store: the handler set
// and binary listener cmd/stmkvd runs. Every request runs one (or, for
// batches, exactly one multi-key) transaction against a kvstore.Store,
// descriptors are borrowed from the store's pool per request, and an
// attached tuning.Runtime re-adapts the TM's lock-table geometry to the
// live traffic while the server runs.
//
// A data request takes one path whatever its transport: a codec (the HTTP
// handlers in this file, the kvproto framing in proto.go) parses it into a
// kvproto.Request, exec (exec.go) decides whether and how it runs, and the
// codec renders the kvproto.Response.
//
// Endpoints:
//
//	GET    /kv/{key}          read one key            -> {"key":k,"val":v}
//	PUT    /kv/{key}          upsert (body: decimal)  -> {"inserted":bool}
//	DELETE /kv/{key}          remove                  -> {"deleted":true}
//	POST   /kv/{key}/cas      body {"old":o,"new":n}  -> {"ok":bool,...}
//	POST   /kv/{key}/add      body {"delta":d}        -> {"val":new}
//	POST   /batch             body {"ops":[...]}      -> {"results":[...]}
//	GET    /scan              the first pairs and the live key count
//	                          (one snapshot transaction; the walk stops
//	                          at ?limit=N pairs)      -> {"keys":n,"pairs":[...]}
//	GET    /stats             what the server is: design, geometry, which
//	                          subsystems are on, durability and recovery
//	GET    /tuning            the tuner's state and its per-period events
//	GET    /metrics           every count and gauge (Prometheus text)
//	GET    /healthz           liveness (always 200 while the process runs)
//	GET    /readyz            readiness: 503 + Retry-After during WAL
//	                          replay, degraded read-only mode, or after a
//	                          failed recovery; 200 once serving normally
//
// Data response bodies are rendered and /batch bodies parsed by hand
// (httpcodec.go), held to encoding/json by the tests; a request body past
// kvproto.MaxFrame is refused 413, as the binary surface refuses the frame.
//
// Keys are decimal uint64 path segments; values are uint64. With
// Config.Durability set, mutating requests are written ahead to a
// commit-ordered log (see internal/wal) and, in group mode, acked only
// once durable; on boot the server replays the log in the background
// before flipping /readyz to 200.
package kvserver

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tinystm/internal/admission"
	"tinystm/internal/core"
	"tinystm/internal/kvproto"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
	"tinystm/internal/resilience"
	"tinystm/internal/tuning"
	"tinystm/internal/wal"
)

// Config parameterizes a Server. The server always runs write-back and
// always samples one atomic block in 64 (txTraceEvery) into the flight
// recorder.
type Config struct {
	// SpaceWords sizes the transactional arena. Default 1<<22.
	SpaceWords int
	// Geometry is the TM's initial lock-table triple. A zero Geometry
	// defaults to the deliberately modest (2^8, 0, 1) so a fresh server
	// visibly adapts under load.
	Geometry core.Params
	// Snapshots attaches the MVCC sidecar: all-Get /batch requests, Len
	// and the /scan endpoint then run as wait-free snapshot transactions
	// instead of abort-prone classic read-only ones. cmd/stmkvd always
	// sets it.
	Snapshots bool
	// Autotune attaches a tuning.Runtime (on by default in cmd/stmkvd):
	// the paper's hill climber over the lock-table geometry.
	Autotune bool
	// AdmissionWidth puts a token-bucket gate of that many concurrent
	// update transactions in front of the store (both HTTP and binary
	// surfaces); 0 disables the gate. Reads are never gated. The width is
	// fixed for the server's life.
	AdmissionWidth int
	// Period and Samples mirror tuning.RuntimeConfig.
	Period  time.Duration
	Samples int
	// Seed drives the tuner's randomized move selection.
	Seed uint64
	// Durability selects the write-ahead-log ack mode: "off" (default —
	// no log) or "group" (acked only after the commit's records are
	// fsynced; concurrent commits share one fsync). Requires Snapshots:
	// a checkpoint, which truncates the log, is one snapshot scan.
	Durability string
	// WALDir is the log/checkpoint directory; required unless off.
	WALDir string
	// WALBatch is the flusher's batch-accumulation delay (0: flush as
	// soon as records appear). Larger values trade ack latency for fewer
	// fsyncs.
	WALBatch time.Duration
	// CheckpointEvery is the background snapshot-checkpoint period; 0
	// disables checkpointing (the log then grows without truncation).
	CheckpointEvery time.Duration

	// The fields below are hooks that only this package's tests set.

	// shards and buckets shape the store (powers of two). Defaults 16
	// and 64.
	shards, buckets uint64
	// walFS overrides the log's filesystem (fault injection); nil means
	// the real OS.
	walFS wal.FS
	// recoveryGate holds boot recovery open (the server stays in the
	// starting state) until the channel is closed.
	recoveryGate chan struct{}
}

func (c Config) withDefaults() Config {
	if c.SpaceWords == 0 {
		c.SpaceWords = 1 << 22
	}
	if c.shards == 0 {
		c.shards = 16
	}
	if c.buckets == 0 {
		c.buckets = 64
	}
	if c.Geometry == (core.Params{}) {
		c.Geometry = core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1}
	}
	if c.Durability == "" {
		c.Durability = DurabilityOff
	}
	return c
}

// Server owns the TM, the store, (optionally) the tuning runtime and
// (optionally) the durability machinery.
type Server struct {
	cfg   Config
	tm    *core.TM
	store *kvstore.Store[*core.Tx]
	rt    *tuning.Runtime
	mux   *http.ServeMux
	start time.Time
	dur   *durability
	// gate is the update-admission token bucket, nil without
	// AdmissionWidth.
	gate *admission.Gate
	// met owns every instrument (histograms, registry, flight recorder,
	// shard heat); proto carries the binary listener's counters.
	met   *metrics
	proto protoStats
	// deadlineShed counts deadline refusals by surface and stage, for
	// /metrics.
	//stm:allow-atomic request accounting outside any transaction
	deadlineShed [nSurfaces][nShedStages]atomic.Uint64
}

// validate rejects configurations the lower layers would panic on, so
// flag mistakes surface as clean errors from New.
func (c Config) validate() error {
	if c.SpaceWords < 1<<10 {
		return fmt.Errorf("kvserver: SpaceWords (%d) must be at least %d", c.SpaceWords, 1<<10)
	}
	if c.shards == 0 || bits.OnesCount64(c.shards) != 1 {
		return fmt.Errorf("kvserver: Shards (%d) must be a power of two", c.shards)
	}
	if c.buckets == 0 || bits.OnesCount64(c.buckets) != 1 {
		return fmt.Errorf("kvserver: Buckets (%d) must be a power of two", c.buckets)
	}
	if _, err := ParseDurability(c.Durability); err != nil {
		return err
	}
	if c.Durability != DurabilityOff && c.WALDir == "" {
		return fmt.Errorf("kvserver: durability %q requires a WAL directory", c.Durability)
	}
	if c.Durability != DurabilityOff && !c.Snapshots {
		return fmt.Errorf("kvserver: durability %q requires Snapshots", c.Durability)
	}
	return nil
}

// New builds the TM, the store and the handler set; with cfg.Autotune it
// also starts the tuning runtime.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tm, err := core.New(core.Config{
		Space:     mem.NewSpace(cfg.SpaceWords),
		Locks:     cfg.Geometry.Locks,
		Shifts:    cfg.Geometry.Shifts,
		Hier:      cfg.Geometry.Hier,
		Design:    core.WriteBack,
		Snapshots: cfg.Snapshots,
	})
	if err != nil {
		return nil, fmt.Errorf("kvserver: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		tm:    tm,
		store: kvstore.NewStore[*core.Tx](tm, cfg.shards, cfg.buckets),
		start: time.Now(),
	}
	if cfg.AdmissionWidth > 0 {
		s.gate = admission.New(cfg.AdmissionWidth)
	}
	s.met = newMetrics(s)
	tm.SetObs(s.met.tmObs)
	s.store.SetShardHeat(s.met.heat)
	if cfg.Autotune {
		s.rt = tuning.NewRuntime(tm, tuning.RuntimeConfig{
			Tuner:   tuning.Config{Initial: cfg.Geometry, Seed: cfg.Seed},
			Period:  cfg.Period,
			Samples: cfg.Samples,
			// A daemon tunes forever: keep only a bounded window of
			// events in memory (/tuning serves its tail).
			TraceCap: traceCap,
		})
		s.met.registerTuning(s.rt)
		if err := s.rt.Start(); err != nil {
			s.store.Close()
			return nil, err
		}
	}
	s.dur = &durability{
		mode:    cfg.Durability,
		fs:      cfg.walFS,
		dir:     cfg.WALDir,
		recDone: make(chan struct{}),
	}
	s.startDurability()
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// TM exposes the underlying STM (tests, stats).
func (s *Server) TM() *core.TM { return s.tm }

// Store exposes the key-value store.
func (s *Server) Store() *kvstore.Store[*core.Tx] { return s.store }

// Runtime returns the attached tuning runtime, nil without Autotune.
func (s *Server) Runtime() *tuning.Runtime { return s.rt }

// Close stops the checkpointer and the write-ahead log, then the tuning
// runtime, and releases every pooled descriptor back to the TM (the
// server-side half of the Tx.Release contract: a shut-down server leaks
// no descriptor slots).
func (s *Server) Close() {
	s.closeDurability()
	if s.rt != nil {
		s.rt.Stop()
	}
	s.store.Close()
}

// Handler returns the root handler: it re-anchors the request's relative
// X-Timeout-Ms budget to an absolute deadline on the server's own clock
// (a malformed header is a 400) and routes. The data routes are the HTTP
// codec of the request pipeline: parse → exec → render.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dl, err := httpDeadline(r)
		if err != nil {
			http.Error(w, "bad "+resilience.TimeoutHeader+": "+err.Error(), http.StatusBadRequest)
			return
		}
		s.mux.ServeHTTP(w, withDeadline(r, dl))
	})
}

// httpError answers a refusal; a 503 carries a Retry-After hint so
// pollers and load balancers back off politely.
func httpError(w http.ResponseWriter, msg string, code int) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, msg, code)
}

func (s *Server) routes() {
	// Liveness and readiness are distinct on purpose: a server replaying
	// a large WAL, or degraded to read-only, is alive (don't restart it —
	// that only repeats the replay) but not ready (don't route writes to
	// it).
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if st := s.dur.state.Load(); st != stateReady {
			httpError(w, stateName(st), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("GET /kv/{key}", s.handleGet)
	s.mux.HandleFunc("PUT /kv/{key}", s.handlePut)
	s.mux.HandleFunc("DELETE /kv/{key}", s.handleDelete)
	s.mux.HandleFunc("POST /kv/{key}/cas", s.handleCAS)
	s.mux.HandleFunc("POST /kv/{key}/add", s.handleAdd)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("GET /scan", s.handleScan)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /tuning", s.handleTuning)
	s.mux.Handle("GET /metrics", s.met.reg.Handler())
	s.mux.HandleFunc("GET /debug/txtrace", s.handleTxTrace)
}

// The parse half of the HTTP codec: each data handler turns its request
// into the kvproto.Request the binary surface would have decoded (a
// malformed one is a 400 here, as a malformed frame is a decode error
// there) and hands it to serve.

func pathKey(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	k, err := strconv.ParseUint(r.PathValue("key"), 10, 64)
	if err != nil {
		http.Error(w, "bad key: "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	return k, true
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(limitedBody(w, r)).Decode(v); err != nil {
		bodyError(w, "bad body: ", err)
		return false
	}
	return true
}

// queryLimit parses the optional ?limit=N (N >= 1); 0 means absent.
func queryLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("limit")
	if q == "" {
		return 0, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 1 {
		http.Error(w, "bad limit", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if key, ok := pathKey(w, r); ok {
		s.serve(w, r, &kvproto.Request{Op: kvproto.OpGet, Key: key})
	}
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key, ok := pathKey(w, r)
	if !ok {
		return
	}
	var val uint64
	if _, err := fmt.Fscan(limitedBody(w, r), &val); err != nil {
		bodyError(w, "bad value (want a decimal uint64 body): ", err)
		return
	}
	s.serve(w, r, &kvproto.Request{Op: kvproto.OpPut, Key: key, Val: val})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if key, ok := pathKey(w, r); ok {
		s.serve(w, r, &kvproto.Request{Op: kvproto.OpDelete, Key: key})
	}
}

func (s *Server) handleCAS(w http.ResponseWriter, r *http.Request) {
	var body struct{ Old, New uint64 }
	if key, ok := pathKey(w, r); ok && readJSON(w, r, &body) {
		s.serve(w, r, &kvproto.Request{Op: kvproto.OpCAS, Key: key, Old: body.Old, Val: body.New})
	}
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var body struct{ Delta uint64 }
	if key, ok := pathKey(w, r); ok && readJSON(w, r, &body) {
		s.serve(w, r, &kvproto.Request{Op: kvproto.OpAdd, Key: key, Val: body.Delta})
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	d := batchDecoders.Get().(*batchDecoder)
	defer d.release()
	if err := d.read(limitedBody(w, r)); err != nil {
		bodyError(w, "bad body: ", err)
		return
	}
	ops, code, err := d.decode()
	if err != nil {
		http.Error(w, err.Error(), code)
		return
	}
	s.serve(w, r, &kvproto.Request{Op: kvproto.OpBatch, Ops: ops})
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	limit, ok := queryLimit(w, r)
	if !ok {
		return
	}
	s.serve(w, r, &kvproto.Request{Op: kvproto.OpScan, Limit: uint32(min(limit, kvproto.MaxScanPairs))})
}

// httpStatus is the one Status → HTTP code table.
var httpStatus = [...]int{
	kvproto.StatusOK:               http.StatusOK,
	kvproto.StatusUnavailable:      http.StatusServiceUnavailable,
	kvproto.StatusError:            http.StatusBadRequest,
	kvproto.StatusDeadlineExceeded: http.StatusGatewayTimeout,
}

// serve is the back half of the HTTP codec: run the parsed request
// through exec and render the response. A batch runs in a carrier, which
// goes back once writeBody has encoded the results that are its slots.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, req *kvproto.Request) {
	var resp kvproto.Response
	var bc *batchCarrier
	if req.Op == kvproto.OpBatch {
		bc = takeCarrier()
		defer bc.recycle()
	}
	s.exec(surfHTTP, deadlineOf(r), req, &resp, bc)
	if resp.Status != kvproto.StatusOK {
		code := httpStatus[resp.Status]
		if resp.Msg == core.ErrSpaceExhausted.Error() {
			// The wire vocabulary folds arena exhaustion into StatusError;
			// HTTP tells the client it was not their request's fault.
			code = http.StatusInsufficientStorage
		}
		httpError(w, resp.Msg, code)
		return
	}
	if !resp.Found && (req.Op == kvproto.OpGet || req.Op == kvproto.OpDelete) {
		http.Error(w, "key not found", http.StatusNotFound)
		return
	}
	writeBody(w, req, &resp)
}

// handleStats says what the server is and how it booted: the STM design
// and geometry, which subsystems are on, the durability lifecycle and its
// recovery story. Every count and gauge is on /metrics; the three counters
// left here (proto.bad_frames, proto.err_ops, durability.checkpoints.count)
// are the ones bench/ reads from this page.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"design":     s.tm.Design().String(),
		"params":     s.tm.Params(),
		"snapshots":  map[string]any{"enabled": s.tm.SnapshotsEnabled()},
		"durability": s.durabilityStats(),
		"admission":  map[string]any{"enabled": s.gate != nil},
		"proto": map[string]any{
			// bench/ reads both here until ROADMAP's bench-only change.
			"bad_frames": s.proto.badFrames.Load(),
			"err_ops":    s.proto.errOps.Load(),
		},
	})
}

// wireEvent is the JSON form of one tuning period: the sample and the
// tuner's triple before and after with its move number. The keys are
// frozen because clients read them.
func wireEvent(e tuning.Event) map[string]any {
	we := map[string]any{
		"period":     e.Period,
		"throughput": e.Throughput,
		"commits":    e.Commits,
		"aborts":     e.Aborts,
		"idle":       e.Idle,
	}
	we["params"] = e.From
	we["next"] = e.To
	if !e.Idle {
		we["move"] = e.Move.Signed(e.Reversed)
	}
	if e.Err != nil {
		we["err"] = e.Err.Error()
	}
	return we
}

// traceCap bounds the tuning runtime's retained event window on a
// long-running server; maxTuningEvents bounds one /tuning response
// (?limit=N requests fewer).
const (
	traceCap        = 4096
	maxTuningEvents = 512
)

func (s *Server) handleTuning(w http.ResponseWriter, r *http.Request) {
	if s.rt == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	limit, ok := queryLimit(w, r)
	if !ok {
		return
	}
	if limit == 0 || limit > maxTuningEvents {
		limit = maxTuningEvents
	}
	events := s.rt.Trace()
	if len(events) > limit {
		events = events[len(events)-limit:]
	}
	out := make([]map[string]any, len(events))
	for i, e := range events {
		out[i] = wireEvent(e)
	}
	var best *core.Params // null until a period is measured
	p, bestTp, ok := s.rt.Best()
	if ok {
		best = &p
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":         true,
		"running":         s.rt.Running(),
		"current":         s.rt.Current(),
		"best":            best,
		"best_throughput": bestTp,
		"periods_total":   s.rt.Periods(),
		"events":          out,
	})
}
