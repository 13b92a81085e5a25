// The server's observability face: one obs.Registry exposing every layer
// — STM commit/abort histograms split by cause, per-op request latency on
// both surfaces, WAL flush latency and batch sizes, admission gate state
// and wait time, per-shard heat, durability lifecycle — plus the sampled
// transaction flight recorder behind /debug/txtrace.
package kvserver

import (
	"math/bits"
	"net/http"
	rtmetrics "runtime/metrics"
	"strconv"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/kvproto"
	"tinystm/internal/obs"
	"tinystm/internal/tuning"
	"tinystm/internal/txn"
	"tinystm/internal/wal"
)

// Request surfaces and op kinds label the request-latency histograms.
const (
	surfHTTP = iota
	surfProto
	nSurfaces
)

var surfaceNames = [nSurfaces]string{"http", "proto"}

// nReqOps counts the data ops, kvproto.OpGet through kvproto.OpScan: the
// request-latency histograms are indexed by op - kvproto.OpGet.
const nReqOps = int(kvproto.OpScan-kvproto.OpGet) + 1

// txTraceEvery is the flight recorder's sampling rate (one atomic block
// in N); txTraceCap the retained event window.
const (
	txTraceEvery = 64
	txTraceCap   = 4096
)

// metrics bundles the server's instruments and their registry. Everything
// the hot paths touch (histograms, recorder, heat) is lock-free; the
// counters and gauges rendered from other layers' state are read at
// scrape time through the OnScrape cache below.
type metrics struct {
	reg *obs.Registry

	// req is every data request's latency by surface and op.
	req [nSurfaces][nReqOps]*obs.Histogram

	admWaitNs   *obs.Histogram
	walFlushNs  *obs.Histogram
	walBatchOps *obs.Histogram
	// ackWaitNs is the durability wait itself: from an update's commit to
	// the release of its acknowledgement (Server.settle).
	ackWaitNs *obs.Histogram

	tmObs *obs.TMObs
	rec   *obs.Recorder
	heat  *obs.ShardHeat

	// Scrape-time caches, refreshed by the registry's OnScrape hook.
	// Hook and render both run under the registry mutex, so every
	// CounterFunc/GaugeFunc below reads one consistent snapshot instead
	// of re-walking the TM's descriptor table per sample.
	st       txn.Stats
	restarts [core.NSnapRestarts]uint64
	tooOld   uint64
	walStats wal.Stats
	mem      memStats
	minted   int
	free     int
	// adm is the admission gate's state, zero without a gate.
	adm struct {
		width, inflight           int
		admitted, waited, expired uint64
	}
}

// memStats tells data from heap: the arena words the store's allocator has
// handed out, the words mapped for the arena and the MVCC sidecar outside
// the Go heap, and the Go heap the collector found live at its last cycle
// — what the next one paces on. A process that holds much more than the
// sum is holding garbage the collector has not come round to.
type memStats struct {
	arenaLive, arenaMapped, goHeapLive uint64
}

func (s *Server) memStats() memStats {
	sp := s.tm.Space()
	mapped := uint64(sp.Cap()) * 8
	if s.tm.SnapshotsEnabled() {
		mapped *= 2 // the sidecar holds one timestamp per arena word
	}
	heap := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(heap)
	return memStats{arenaLive: sp.LiveWords() * 8, arenaMapped: mapped, goHeapLive: heap[0].Value.Uint64()}
}

// newMetrics builds every instrument and registers the full metric set.
func newMetrics(s *Server) *metrics {
	m := &metrics{reg: obs.NewRegistry(), rec: obs.NewRecorder(txTraceCap, txTraceEvery)}
	m.tmObs = obs.NewTMObs(m.rec)
	m.heat = obs.NewShardHeat(int(s.cfg.shards))
	m.admWaitNs = obs.NewHistogram()
	m.walFlushNs = obs.NewHistogram()
	m.walBatchOps = obs.NewHistogram()
	m.ackWaitNs = obs.NewHistogram()

	m.reg.OnScrape(func() {
		m.st = s.tm.Stats()
		m.restarts = s.tm.SnapshotRestarts()
		m.tooOld = 0
		for _, n := range m.restarts {
			m.tooOld += n
		}
		if log := s.dur.walLog(); log != nil {
			m.walStats = log.Stats()
		}
		m.mem = s.memStats()
		m.minted, m.free = s.tm.DescriptorCounts()
		if s.gate != nil {
			m.adm.width, m.adm.inflight, m.adm.admitted, m.adm.waited = s.gate.Stats()
			m.adm.expired = s.gate.Expired()
		}
	})

	lat := obs.LatencyBounds()

	// --- STM ---
	m.reg.CounterFunc("stm_commits_total", "Committed transactions.", nil,
		func() float64 { return float64(m.st.Commits) })
	m.reg.CounterFunc("stm_irrevocable_commits_total", "Commits that ran alone behind the freeze barrier (bulk batches); stm_commits_total counts them too.", nil,
		func() float64 { return float64(m.st.IrrevocableCommits) })
	m.reg.CounterFunc("stm_extensions_total", "Successful snapshot extensions.", nil,
		func() float64 { return float64(m.st.Extensions) })
	m.reg.CounterFunc("stm_retry_waits_total", "Retries that first waited for the lock that beat the failed attempt.", nil,
		func() float64 { return float64(m.st.RetryWaits) })
	m.reg.CounterFunc("stm_retry_wait_seconds_total", "Time retries spent waiting for the lock that beat the failed attempt.", nil,
		func() float64 { return float64(m.st.RetryWaitNs) / 1e9 })
	m.reg.CounterFunc("stm_rollovers_total", "Clock roll-over freezes.", nil,
		func() float64 { return float64(m.st.RollOvers) })
	m.reg.CounterFunc("stm_reconfigs_total", "Dynamic lock-table reconfigurations.", nil,
		func() float64 { return float64(m.st.Reconfigs) })
	descs := "Transaction descriptors: minted over the TM's lifetime, and free on its list now."
	m.reg.GaugeFunc("stm_descriptors", descs, obs.Labels{"state": "minted"}, func() float64 { return float64(m.minted) })
	m.reg.GaugeFunc("stm_descriptors", descs, obs.Labels{"state": "free"}, func() float64 { return float64(m.free) })
	m.reg.Histogram("stm_commit_seconds", "Duration of committed transaction attempts.", nil,
		m.tmObs.CommitNs, 1e-9, lat)
	m.reg.Histogram("stm_freeze_seconds", "Time each freeze (lock-table reconfiguration, shard growth, bulk batch or clock roll-over) held the world frozen.", nil,
		m.tmObs.FreezeNs, 1e-9, lat)
	for k := 0; k < txn.NAbortKinds; k++ {
		kind := txn.AbortKind(k)
		m.reg.CounterFunc("stm_aborts_total", "Aborted transaction attempts by cause.",
			obs.Labels{"cause": kind.String()},
			func() float64 { return float64(m.st.AbortsByKind[kind]) })
		m.reg.Histogram("stm_abort_seconds", "Duration of aborted transaction attempts by cause.",
			obs.Labels{"cause": kind.String()}, m.tmObs.AbortNs[kind], 1e-9, lat)
	}

	// --- MVCC snapshot sidecar ---
	m.reg.CounterFunc("stm_snapshot_too_old_total", "Snapshot attempts that gave up and restarted on a fresh snapshot (the sum of stm_snapshot_restarts_total).", nil,
		func() float64 { return float64(m.tooOld) })
	for c := core.SnapRestart(0); c < core.NSnapRestarts; c++ {
		m.reg.CounterFunc("stm_snapshot_restarts_total", "Snapshot restarts by cause: trimmed (the shard trimmed past the snapshot), miss (no version held for a record past it), held (a writer held the stripe through the spin budget).",
			obs.Labels{"cause": c.String()},
			func() float64 { return float64(m.restarts[c]) })
	}
	m.reg.CounterFunc("stm_snapshot_reads_live_total", "Snapshot-mode reads served from live memory.", nil,
		func() float64 { return float64(m.st.SnapshotLiveReads) })
	m.reg.CounterFunc("stm_snapshot_reads_sidecar_total", "Snapshot-mode reads served from retained versions.", nil,
		func() float64 { return float64(m.st.SnapshotVersionReads) })
	m.reg.CounterFunc("stm_versioned_commits_total", "Update commits that saw a registered snapshot and so published to the MVCC sidecar (0: the sidecar is cold).", nil,
		func() float64 { return float64(m.st.VersionedCommits) })
	m.reg.CounterFunc("stm_versions_published_total", "Pre-images delivered to the MVCC sidecar.", nil,
		func() float64 { return float64(m.st.VersionsPublished) })
	m.reg.CounterFunc("stm_versions_trimmed_total", "Versions evicted from the MVCC sidecar.", nil,
		func() float64 { return float64(m.st.VersionsTrimmed) })
	m.reg.GaugeFunc("stm_version_budget", "Per-shard retained-version budget (0 when snapshots are off).", nil,
		func() float64 { return float64(s.tm.VersionBudget()) })

	// --- Requests ---
	for surf := 0; surf < nSurfaces; surf++ {
		for op := 0; op < nReqOps; op++ {
			m.req[surf][op] = obs.NewHistogram()
			m.reg.Histogram("stmkvd_request_seconds", "Data-request latency by surface and op.",
				obs.Labels{"surface": surfaceNames[surf], "op": (kvproto.OpGet + kvproto.Op(op)).String()},
				m.req[surf][op], 1e-9, lat)
		}
	}

	// --- Store ---
	m.reg.GaugeFunc("stmkvd_keys", "Live keys in the store; may trail the table by the updates committed but not yet returned.", nil,
		func() float64 { return float64(s.store.Len()) })
	m.reg.CounterFunc("stmkvd_shard_grows_total", "Shard growths; each rehashed a whole shard behind the freeze barrier, in a freeze of its own (one stm_freeze_seconds observation).", nil,
		func() float64 { return float64(s.store.Grows()) })
	m.reg.GaugeFunc("stmkvd_uptime_seconds", "Seconds since the server booted.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	m.reg.GaugeFunc("stmkvd_arena_live_bytes", "Arena bytes the STM allocator has handed out.", nil,
		func() float64 { return float64(m.mem.arenaLive) })
	m.reg.GaugeFunc("stmkvd_arena_mapped_bytes", "Bytes mapped outside the Go heap for the arena and the MVCC sidecar.", nil,
		func() float64 { return float64(m.mem.arenaMapped) })
	m.reg.GaugeFunc("stmkvd_go_heap_live_bytes", "Go heap found live by the last collection (/gc/heap/live:bytes).", nil,
		func() float64 { return float64(m.mem.goHeapLive) })
	for i := 0; i < m.heat.Shards(); i++ {
		sh := i
		ls := obs.Labels{"shard": strconv.Itoa(sh)}
		m.reg.CounterFunc("stmkvd_shard_ops_total", "Completed single-key operations per store shard.", ls,
			func() float64 { return float64(m.heat.Ops(sh)) })
		m.reg.CounterFunc("stmkvd_shard_aborts_total", "Transaction retries per store shard (heat map).", ls,
			func() float64 { return float64(m.heat.Aborts(sh)) })
	}

	// --- Admission gate (zero-valued series when disabled) ---
	m.reg.GaugeFunc("stmkvd_admission_width", "Update-admission gate width (0: gate disabled).", nil,
		func() float64 { return float64(m.adm.width) })
	m.reg.GaugeFunc("stmkvd_admission_inflight", "Update transactions currently admitted.", nil,
		func() float64 { return float64(m.adm.inflight) })
	m.reg.CounterFunc("stmkvd_admission_admitted_total", "Updates admitted through the gate.", nil,
		func() float64 { return float64(m.adm.admitted) })
	m.reg.CounterFunc("stmkvd_admission_waited_total", "Updates that blocked at the gate.", nil,
		func() float64 { return float64(m.adm.waited) })
	m.reg.Histogram("stmkvd_admission_wait_seconds", "Time update requests spent waiting at the admission gate.", nil,
		m.admWaitNs, 1e-9, lat)
	m.reg.CounterFunc("stmkvd_admission_expired_total", "Updates refused at the gate because their deadline passed.", nil,
		func() float64 { return float64(m.adm.expired) })

	// --- Resilience: deadline sheds ---
	for surf := 0; surf < nSurfaces; surf++ {
		for st := 0; st < nShedStages; st++ {
			surf, st := surf, st
			m.reg.CounterFunc("stmkvd_deadline_shed_total", "Requests shed because their deadline budget ran out, by surface and stage.",
				obs.Labels{"surface": surfaceNames[surf], "stage": shedStageNames[st]},
				func() float64 { return float64(s.deadlineShed[surf][st].Load()) })
		}
	}

	// --- Durability / WAL ---
	for _, st := range []int32{stateStarting, stateReady, stateDegraded, stateFailed} {
		st := st
		m.reg.GaugeFunc("stmkvd_durability_state", "Server lifecycle state (one-hot).",
			obs.Labels{"state": stateName(st)},
			func() float64 {
				if s.dur.state.Load() == st {
					return 1
				}
				return 0
			})
	}
	m.reg.CounterFunc("stmkvd_redo_records_total", "Redo records handed to the durability hook.", nil,
		func() float64 { return float64(m.st.RedoRecords) })
	m.reg.CounterFunc("stmkvd_wal_appends_total", "Records staged to the write-ahead log.", nil,
		func() float64 { return float64(m.walStats.Appends) })
	m.reg.CounterFunc("stmkvd_wal_batches_total", "Flusher batches that reached disk.", nil,
		func() float64 { return float64(m.walStats.Batches) })
	m.reg.CounterFunc("stmkvd_wal_syncs_total", "WAL fsyncs: one per batch, per segment header and per sealed reserved segment.", nil,
		func() float64 { return float64(m.walStats.Syncs) })
	m.reg.GaugeFunc("stmkvd_wal_preallocated", "1 when the current WAL segment was reserved ahead of its writes (a sync is one data write), 0 when the filesystem has no fallocate and frames grow the file.", nil,
		func() float64 {
			if m.walStats.Preallocated {
				return 1
			}
			return 0
		})
	m.reg.CounterFunc("stmkvd_wal_rotations_total", "WAL segment rotations.", nil,
		func() float64 { return float64(m.walStats.Rotations) })
	m.reg.CounterFunc("stmkvd_wal_checkpoints_total", "Checkpoints written; each truncates the log behind it.", nil,
		func() float64 { return float64(s.dur.checkpoints()) })
	m.reg.Histogram("stmkvd_wal_flush_seconds", "Write+fsync duration per WAL batch.", nil,
		m.walFlushNs, 1e-9, lat)
	m.reg.Histogram("stmkvd_wal_batch_ops", "Records per flushed WAL batch.", nil,
		m.walBatchOps, 1, obs.SizeBounds())
	m.reg.Histogram("stmkvd_wal_ack_wait_seconds", "Time a committed update's acknowledgement waited for its WAL ticket, commit to release.", nil,
		m.ackWaitNs, 1e-9, lat)

	// --- Binary protocol listener ---
	m.reg.GaugeFunc("stmkvd_proto_conns", "Open binary-protocol connections.", nil,
		func() float64 { return float64(s.proto.conns.Load()) })
	m.reg.CounterFunc("stmkvd_proto_accepted_total", "Binary-protocol connections accepted.", nil,
		func() float64 { return float64(s.proto.accepted.Load()) })
	m.reg.CounterFunc("stmkvd_proto_ops_total", "Binary-protocol requests executed.", nil,
		func() float64 { return float64(s.proto.ops.Load()) })
	m.reg.CounterFunc("stmkvd_proto_err_ops_total", "Binary-protocol responses with a non-OK status.", nil,
		func() float64 { return float64(s.proto.errOps.Load()) })
	m.reg.CounterFunc("stmkvd_proto_bad_frames_total", "Connections dropped for framing/decode errors.", nil,
		func() float64 { return float64(s.proto.badFrames.Load()) })
	m.reg.GaugeFunc("stmkvd_proto_held", "Binary-protocol answers held for a WAL ticket, all connections.", nil,
		func() float64 { return float64(s.proto.held.Load()) })
	m.reg.CounterFunc("stmkvd_proto_spawned_total", "Binary-protocol requests handed to a goroutine of their own (a full gate, a Scan or a long batch).", nil,
		func() float64 { return float64(s.proto.spawned.Load()) })
	m.reg.CounterFunc("stmkvd_proto_handoffs_total", "Flusher deliveries of durable answers finished on a goroutine of their own.", nil,
		func() float64 { return float64(s.proto.handoffs.Load()) })

	return m
}

// registerTuning exports the tuner's decisions and the triple it believes
// is installed, so "why did the tuner move" is answerable from /metrics
// alone. Called from New once the runtime exists.
func (m *metrics) registerTuning(rt *tuning.Runtime) {
	for _, o := range tuning.Outcomes {
		m.reg.CounterFunc("stm_tuning_decisions_total", "Per-period decisions of the geometry tuner by outcome.",
			obs.Labels{"outcome": o.String()},
			func() float64 { return float64(rt.Counts()[o]) })
	}
	knob := func(dim string, f func() float64) {
		m.reg.GaugeFunc("stm_tuning_knob", "Geometry dimension the tuner believes is installed.",
			obs.Labels{"dim": dim}, f)
	}
	knob("locks_log2", func() float64 { return float64(bits.TrailingZeros64(rt.Current().Locks)) })
	knob("shifts", func() float64 { return float64(rt.Current().Shifts) })
	knob("hier_log2", func() float64 { return float64(bits.TrailingZeros64(rt.Current().Hier)) })
}

// TxTrace returns up to limit of the most recent flight-recorder events,
// oldest first.
func (s *Server) TxTrace(limit int) []obs.Event { return s.met.rec.Dump(limit) }

// wireTxEvent is the JSON form of one flight-recorder event.
type wireTxEvent struct {
	Seq     uint64 `json:"seq"`
	Time    int64  `json:"t_unix_ns"`
	Kind    string `json:"kind"`
	Cause   string `json:"cause,omitempty"`
	Slot    uint32 `json:"slot"`
	Attempt uint32 `json:"attempt"`
	DurNs   uint64 `json:"dur_ns,omitempty"`
	Locks   uint64 `json:"locks"`
	Shifts  uint32 `json:"shifts"`
	Hier    uint64 `json:"hier"`
}

func (s *Server) handleTxTrace(w http.ResponseWriter, r *http.Request) {
	limit, ok := queryLimit(w, r)
	if !ok {
		return
	}
	evs := s.met.rec.Dump(limit)
	out := make([]wireTxEvent, len(evs))
	for i, e := range evs {
		we := wireTxEvent{
			Seq:     e.Seq,
			Time:    e.TimeUnixNano,
			Kind:    e.Kind.String(),
			Slot:    e.Slot,
			Attempt: e.Attempt,
			DurNs:   e.DurNs,
			Locks:   e.Locks,
			Shifts:  e.Shifts,
			Hier:    e.Hier,
		}
		if e.Kind == obs.EvAbort {
			we.Cause = e.Cause.String()
		}
		out[i] = we
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":      true,
		"sample_every": s.met.rec.SampleEvery(),
		"capacity":     s.met.rec.Cap(),
		"recorded":     s.met.rec.Recorded(),
		"events":       out,
	})
}
