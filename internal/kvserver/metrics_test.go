package kvserver

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/tuning"
)

// scrape fetches /metrics and returns the body plus a sample lookup:
// value(series) for an exact series string like
// `stm_commits_total` or `stmkvd_durability_state{state="ready"}`.
func scrape(t *testing.T, c *http.Client, url string) (string, func(series string) (float64, bool)) {
	t.Helper()
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	vals := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed sample value in %q: %v", line, err)
		}
		vals[line[:sp]] = v
	}
	return body, func(series string) (float64, bool) { v, ok := vals[series]; return v, ok }
}

// metricFamilies is every family a fully-featured server exports, with its
// type: the frozen /metrics contract (bench/ and the smokes read these
// names). A family added or removed is a deliberate edit here.
var metricFamilies = map[string]string{
	"stm_abort_seconds":                "histogram",
	"stm_aborts_total":                 "counter",
	"stm_commit_seconds":               "histogram",
	"stm_commits_total":                "counter",
	"stm_descriptors":                  "gauge",
	"stm_extensions_total":             "counter",
	"stm_freeze_seconds":               "histogram",
	"stm_irrevocable_commits_total":    "counter",
	"stm_reconfigs_total":              "counter",
	"stm_retry_wait_seconds_total":     "counter",
	"stm_retry_waits_total":            "counter",
	"stm_rollovers_total":              "counter",
	"stm_snapshot_reads_live_total":    "counter",
	"stm_snapshot_reads_sidecar_total": "counter",
	"stm_snapshot_restarts_total":      "counter",
	"stm_snapshot_too_old_total":       "counter",
	"stm_tuning_decisions_total":       "counter",
	"stm_tuning_knob":                  "gauge",
	"stm_version_budget":               "gauge",
	"stm_versioned_commits_total":      "counter",
	"stm_versions_published_total":     "counter",
	"stm_versions_trimmed_total":       "counter",
	"stmkvd_admission_admitted_total":  "counter",
	"stmkvd_admission_expired_total":   "counter",
	"stmkvd_admission_inflight":        "gauge",
	"stmkvd_admission_wait_seconds":    "histogram",
	"stmkvd_admission_waited_total":    "counter",
	"stmkvd_admission_width":           "gauge",
	"stmkvd_arena_live_bytes":          "gauge",
	"stmkvd_arena_mapped_bytes":        "gauge",
	"stmkvd_deadline_shed_total":       "counter",
	"stmkvd_durability_state":          "gauge",
	"stmkvd_go_heap_live_bytes":        "gauge",
	"stmkvd_keys":                      "gauge",
	"stmkvd_proto_accepted_total":      "counter",
	"stmkvd_proto_bad_frames_total":    "counter",
	"stmkvd_proto_conns":               "gauge",
	"stmkvd_proto_err_ops_total":       "counter",
	"stmkvd_proto_handoffs_total":      "counter",
	"stmkvd_proto_held":                "gauge",
	"stmkvd_proto_ops_total":           "counter",
	"stmkvd_proto_spawned_total":       "counter",
	"stmkvd_redo_records_total":        "counter",
	"stmkvd_request_seconds":           "histogram",
	"stmkvd_shard_aborts_total":        "counter",
	"stmkvd_shard_grows_total":         "counter",
	"stmkvd_shard_ops_total":           "counter",
	"stmkvd_uptime_seconds":            "gauge",
	"stmkvd_wal_ack_wait_seconds":      "histogram",
	"stmkvd_wal_appends_total":         "counter",
	"stmkvd_wal_batch_ops":             "histogram",
	"stmkvd_wal_batches_total":         "counter",
	"stmkvd_wal_checkpoints_total":     "counter",
	"stmkvd_wal_flush_seconds":         "histogram",
	"stmkvd_wal_preallocated":          "gauge",
	"stmkvd_wal_rotations_total":       "counter",
	"stmkvd_wal_syncs_total":           "counter",
}

// families maps each family named by a "# TYPE" line of an exposition to
// its type.
func families(body string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out[f[2]] = f[3]
		}
	}
	return out
}

// TestMetricsEndpoint drives traffic over a fully-featured server and
// checks the exposition covers every layer with live values.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		SpaceWords: 1 << 18, shards: 4, buckets: 8,
		Snapshots: true, AdmissionWidth: 8,
		Autotune: true, Period: 2 * time.Millisecond, Samples: 1,
	})
	c := ts.Client()

	for i := 0; i < 32; i++ {
		var ins struct{ Inserted bool }
		doJSON(t, c, "PUT", ts.URL+"/kv/"+strconv.Itoa(i), "1", &ins)
		var got struct{ Val uint64 }
		doJSON(t, c, "GET", ts.URL+"/kv/"+strconv.Itoa(i), "", &got)
	}
	// Stop the tuning loop so the scrape and the runtime's own counts
	// below describe the same instant, then force one more geometry move.
	rt := srv.Runtime()
	for deadline := time.Now().Add(5 * time.Second); rt.Periods() < 4 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	rt.Stop()
	if err := srv.TM().Reconfigure(core.Params{Locks: 1 << 9, Hier: 1}); err != nil {
		t.Fatal(err)
	}

	body, val := scrape(t, c, ts.URL)

	// The tuner exports its decisions by outcome and the triple it
	// believes is installed; the landed moves on /metrics are the
	// runtime's.
	geom := rt.Counts()
	var decisions, landed float64
	for _, o := range tuning.Outcomes {
		v, ok := val(`stm_tuning_decisions_total{outcome="` + o.String() + `"}`)
		if !ok {
			t.Fatalf("no %s decisions series", o)
		}
		decisions += v
		if o == tuning.Moved || o == tuning.Reverted {
			landed += v
		}
	}
	if decisions != float64(rt.Periods()) || decisions < 4 {
		t.Errorf("%v decisions exported over %d periods", decisions, rt.Periods())
	}
	if landed != float64(geom.Landed()) {
		t.Errorf("%v landed moves exported, the runtime counted %d", landed, geom.Landed())
	}
	want := `stm_tuning_knob{dim="locks_log2"}`
	if v, ok := val(want); !ok || v != math.Log2(float64(rt.Current().Locks)) {
		t.Errorf("%s = %v (ok=%v), want %v", want, v, ok, math.Log2(float64(rt.Current().Locks)))
	}
	// The geometry tuner is the only controller, so no series names one:
	// a decision carries only its outcome and a knob only its dim. No
	// other family has appeared or gone.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "stm_tuning_") && strings.Count(line, `="`) != 1 {
			t.Errorf("tuning series with other labels: %s", line)
		}
	}
	if got := families(body); !reflect.DeepEqual(got, metricFamilies) {
		for name, kind := range got {
			if metricFamilies[name] != kind {
				t.Errorf("/metrics has %s %s, not in the frozen family list", kind, name)
			}
		}
		for name, kind := range metricFamilies {
			if got[name] != kind {
				t.Errorf("/metrics lost %s %s", kind, name)
			}
		}
	}
	// Every Reconfigure, the tuner's and the forced one, timed its freeze.
	reconfigs, _ := val("stm_reconfigs_total")
	if v, ok := val("stm_freeze_seconds_count"); !ok || v != reconfigs || v < 1 {
		t.Errorf("stm_freeze_seconds_count = %v (ok=%v), stm_reconfigs_total = %v; want equal and >= 1", v, ok, reconfigs)
	}

	if v, ok := val("stm_commits_total"); !ok || v < 32 {
		t.Fatalf("stm_commits_total = %v (ok=%v), want >= 32", v, ok)
	}
	if v, ok := val(`stmkvd_request_seconds_count{op="put",surface="http"}`); !ok || v != 32 {
		t.Fatalf(`request count {op="put"} = %v (ok=%v), want 32`, v, ok)
	}
	// The histogram carries bucket series and sum/count agreement.
	if !regexp.MustCompile(`stmkvd_request_seconds_bucket\{op="put",surface="http",le="[0-9e.+-]+"\} `).MatchString(body) {
		t.Fatal("no request-latency bucket series in exposition")
	}
	if v, ok := val(`stmkvd_request_seconds_bucket{op="put",surface="http",le="+Inf"}`); !ok || v != 32 {
		t.Fatalf("+Inf bucket = %v (ok=%v), want 32", v, ok)
	}
	if v, ok := val(`stmkvd_durability_state{state="ready"}`); !ok || v != 1 {
		t.Fatalf("durability ready gauge = %v (ok=%v), want 1", v, ok)
	}
	for _, st := range []string{"starting", "degraded", "failed"} {
		if v, _ := val(`stmkvd_durability_state{state="` + st + `"}`); v != 0 {
			t.Fatalf("durability %s gauge = %v, want 0", st, v)
		}
	}
	if v, ok := val("stmkvd_keys"); !ok || v != 32 {
		t.Fatalf("stmkvd_keys = %v (ok=%v), want 32", v, ok)
	}
	if v, ok := val("stmkvd_admission_width"); !ok || v != 8 {
		t.Fatalf("admission width = %v (ok=%v), want the 8 it was built with", v, ok)
	}
	if v, ok := val("stmkvd_admission_admitted_total"); !ok || v < 32 {
		t.Fatalf("admitted = %v (ok=%v), want >= 32", v, ok)
	}
	// 32 distinct keys over 4 shards: the heat map must have landed ops
	// on more than one shard.
	hot := 0
	for sh := 0; sh < 4; sh++ {
		if v, _ := val(`stmkvd_shard_ops_total{shard="` + strconv.Itoa(sh) + `"}`); v > 0 {
			hot++
		}
	}
	if hot < 2 {
		t.Fatalf("shard heat landed on %d shards, want >= 2", hot)
	}
	// Abort-cause family is fully enumerated even when all-zero.
	if _, ok := val(`stm_aborts_total{cause="read-conflict"}`); !ok {
		t.Fatal("abort cause series missing")
	}
}

// TestMetricsAlwaysAdmitted proves /metrics answers while the server is
// still starting (recovery held open), reporting the one-hot starting
// state — the probe the crash smoke test relies on.
func TestMetricsAlwaysAdmitted(t *testing.T) {
	gate := make(chan struct{})
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		SpaceWords: 1 << 18, shards: 4, buckets: 8, Snapshots: true,
		Durability: DurabilityGroup, WALDir: dir, recoveryGate: gate,
	})
	c := ts.Client()

	_, val := scrape(t, c, ts.URL)
	if v, ok := val(`stmkvd_durability_state{state="starting"}`); !ok || v != 1 {
		t.Fatalf("starting gauge = %v (ok=%v), want 1", v, ok)
	}
	close(gate)
	waitReady(t, s)
	_, val = scrape(t, c, ts.URL)
	if v, _ := val(`stmkvd_durability_state{state="ready"}`); v != 1 {
		t.Fatal("ready gauge not 1 after recovery")
	}
	if v, _ := val(`stmkvd_durability_state{state="starting"}`); v != 0 {
		t.Fatal("starting gauge still 1 after recovery")
	}
}

// TestMetricsWAL checks the durable path fills the WAL flush/batch
// histograms and counters, and that the counters are the log's own.
func TestMetricsWAL(t *testing.T) {
	s, ts := newTestServer(t, Config{
		SpaceWords: 1 << 18, shards: 4, buckets: 8, Snapshots: true,
		Durability: DurabilityGroup, WALDir: t.TempDir(),
	})
	c := ts.Client()
	waitReady(t, s)
	for i := 0; i < 8; i++ {
		var ins struct{ Inserted bool }
		doJSON(t, c, "PUT", ts.URL+"/kv/"+strconv.Itoa(i), "1", &ins)
	}
	_, val := scrape(t, c, ts.URL)
	if v, ok := val("stmkvd_wal_appends_total"); !ok || v < 8 {
		t.Fatalf("wal appends = %v (ok=%v), want >= 8", v, ok)
	}
	if v, ok := val("stmkvd_wal_flush_seconds_count"); !ok || v < 1 {
		t.Fatalf("wal flush histogram count = %v (ok=%v), want >= 1", v, ok)
	}
	if v, ok := val("stmkvd_wal_batch_ops_count"); !ok || v < 1 {
		t.Fatalf("wal batch-size histogram count = %v (ok=%v), want >= 1", v, ok)
	}
	// Whether the disk under t.TempDir() can reserve is the host's affair;
	// the gauge and the log must say the same thing about it.
	ls := s.dur.walLog().Stats()
	if v, ok := val("stmkvd_wal_preallocated"); !ok || ls.Preallocated != (v == 1) {
		t.Fatalf("stmkvd_wal_preallocated = %v (ok=%v), the log says preallocated = %v", v, ok, ls.Preallocated)
	}
	if v, _ := val("stmkvd_wal_appends_total"); v != float64(ls.Appends) {
		t.Fatalf("stmkvd_wal_appends_total = %v, the log counted %d", v, ls.Appends)
	}
}

// TestMetricsMemory: /metrics reports the server's memory figures, the
// mapping covers the arena and the sidecar, and the arena's live bytes
// account for the keys inserted.
func TestMetricsMemory(t *testing.T) {
	const words, keys = 1 << 18, 4096
	s, ts := newTestServer(t, Config{SpaceWords: words, shards: 4, buckets: 64, Snapshots: true})
	c := ts.Client()
	runtime.GC() // the heap gauge reads 0 until a first collection
	read := func() (live, mapped float64) {
		t.Helper()
		_, val := scrape(t, c, ts.URL)
		m := s.memStats()
		for _, g := range []struct {
			name string
			want uint64
		}{
			{"stmkvd_arena_live_bytes", m.arenaLive},
			{"stmkvd_arena_mapped_bytes", m.arenaMapped},
		} {
			if v, ok := val(g.name); !ok || v != float64(g.want) {
				t.Fatalf("%s = %v (ok=%v), the server says %d", g.name, v, ok, g.want)
			}
		}
		if v, ok := val("stmkvd_go_heap_live_bytes"); !ok || v <= 0 || m.goHeapLive == 0 {
			t.Fatalf("go heap live: /metrics %v (ok=%v), the runtime %d; want both positive", v, ok, m.goHeapLive)
		}
		return float64(m.arenaLive), float64(m.arenaMapped)
	}

	live0, mapped := read()
	if mapped != 2*words*8 {
		t.Fatalf("arena mapped bytes = %v, want %d: the arena and the sidecar, a word each per arena word", mapped, 2*words*8)
	}
	for k := uint64(0); k < keys; k++ {
		s.Store().Put(k, k)
	}
	live1, _ := read()
	// A key takes at least its key and value words; lines and directories
	// come on top, less the directories the growths freed.
	if grew := live1 - live0; grew < 16*keys {
		t.Fatalf("arena live bytes grew by %v over a %d-key insert, want >= %d (16 B a key)", grew, keys, 16*keys)
	}
}

// TestMetricsShardGrows: /metrics reports the store's shard growths as the
// store counts them: 100 keys over two 2-bucket shards pass growth
// triggers at 8 and 32 keys a shard.
func TestMetricsShardGrows(t *testing.T) {
	s, ts := newTestServer(t, Config{SpaceWords: 1 << 16, shards: 2, buckets: 2})
	c := ts.Client()
	for k := uint64(0); k < 100; k++ {
		s.Store().Put(k, k)
	}
	_, val := scrape(t, c, ts.URL)
	want := s.Store().Grows()
	if want == 0 {
		t.Fatal("no shard grew")
	}
	if v, ok := val("stmkvd_shard_grows_total"); !ok || v != float64(want) {
		t.Fatalf("stmkvd_shard_grows_total = %v (ok=%v), store says %d", v, ok, want)
	}
}

// TestMetricsRetryWaits forces one conflict — a transaction holds a word's
// lock while another's Atomic stores to it — and checks that /metrics
// reports the TM's retry-wait count and seconds, both non-zero.
func TestMetricsRetryWaits(t *testing.T) {
	s, ts := newTestServer(t, Config{SpaceWords: 1 << 18, shards: 4, buckets: 8})
	c := ts.Client()
	tm := s.TM()
	owner, loser := tm.NewTx(), tm.NewTx()
	defer owner.Release()
	defer loser.Release()
	var x uint64
	tm.Atomic(owner, func(tx *core.Tx) { x = tx.Alloc(1) })

	owner.Begin(false)
	owner.Store(x, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tm.Atomic(loser, func(tx *core.Tx) { tx.Store(x, 2) })
	}()
	for loser.TxStats().Aborts == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(10 * time.Millisecond) // the loser is waiting for x's lock by now
	if !owner.Commit() {
		t.Fatal("the lock owner's commit failed")
	}
	<-done

	st := tm.Stats()
	_, val := scrape(t, c, ts.URL)
	if st.RetryWaits < 1 || st.RetryWaitNs == 0 {
		t.Fatalf("TM retry waits = %d over %d ns, want a counted wait with its time", st.RetryWaits, st.RetryWaitNs)
	}
	for _, g := range []struct {
		name string
		want float64
	}{
		{"stm_retry_waits_total", float64(st.RetryWaits)},
		{"stm_retry_wait_seconds_total", float64(st.RetryWaitNs) / 1e9},
	} {
		if v, ok := val(g.name); !ok || v != g.want {
			t.Errorf("%s = %v (ok=%v), the TM says %v", g.name, v, ok, g.want)
		}
	}
}

// TestMetricsVersionedCommits: with only point traffic the MVCC sidecar
// stays cold, so /metrics and the TM count no versioned commit, and a
// /scan on its own changes nothing: a scan commits nothing. A put that
// commits while a snapshot is registered, as under a long /scan, is
// versioned, and both count it.
func TestMetricsVersionedCommits(t *testing.T) {
	s, ts := newTestServer(t, Config{SpaceWords: 1 << 18, shards: 4, buckets: 8, Snapshots: true})
	c := ts.Client()
	versioned := func() float64 {
		t.Helper()
		_, val := scrape(t, c, ts.URL)
		v, ok := val("stm_versioned_commits_total")
		if want := s.TM().Stats().VersionedCommits; !ok || v != float64(want) {
			t.Fatalf("stm_versioned_commits_total = %v (ok=%v), the TM says %d", v, ok, want)
		}
		return v
	}
	for k := 0; k < 20; k++ {
		doJSON(t, c, "PUT", ts.URL+"/kv/"+strconv.Itoa(k), strconv.Itoa(k), nil)
		doJSON(t, c, "GET", ts.URL+"/kv/"+strconv.Itoa(k), "", nil)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/scan", "", nil); code != http.StatusOK {
		t.Fatalf("GET /scan status %d", code)
	}
	if v := versioned(); v != 0 {
		t.Fatalf("%v versioned commits from point traffic and a lone scan, want 0", v)
	}

	r := s.TM().NewTx()
	defer r.Release()
	r.BeginSnap()
	doJSON(t, c, "PUT", ts.URL+"/kv/3", "33", nil)
	if !r.Commit() {
		t.Fatal("the registered snapshot failed to commit")
	}
	if v := versioned(); v != 1 {
		t.Fatalf("%v versioned commits after one put under a registered snapshot, want 1", v)
	}
}

// TestTxTraceEndpoint drives enough traffic for the flight recorder to
// sample several transactions at its fixed rate and checks the dump's
// shape and the limit parameter.
func TestTxTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{
		SpaceWords: 1 << 18, shards: 4, buckets: 8,
	})
	c := ts.Client()
	for i := 0; i < 4*txTraceEvery; i++ {
		var ins struct{ Inserted bool }
		doJSON(t, c, "PUT", ts.URL+"/kv/"+strconv.Itoa(i), "7", &ins)
	}

	var dump struct {
		Enabled     bool   `json:"enabled"`
		SampleEvery uint64 `json:"sample_every"`
		Recorded    uint64 `json:"recorded"`
		Events      []struct {
			Seq   uint64 `json:"seq"`
			Kind  string `json:"kind"`
			Locks uint64 `json:"locks"`
		} `json:"events"`
	}
	if code := doJSON(t, c, "GET", ts.URL+"/debug/txtrace", "", &dump); code != 200 {
		t.Fatalf("txtrace status %d", code)
	}
	if !dump.Enabled || dump.SampleEvery != txTraceEvery {
		t.Fatalf("enabled=%v every=%d, want true/%d", dump.Enabled, dump.SampleEvery, txTraceEvery)
	}
	if len(dump.Events) == 0 || dump.Recorded == 0 {
		t.Fatalf("flight recorder dumped no events over %d transactions", 4*txTraceEvery)
	}
	commits := 0
	for _, e := range dump.Events {
		if e.Kind == "commit" {
			commits++
		}
		if e.Locks == 0 {
			t.Fatalf("event %d missing TM geometry", e.Seq)
		}
	}
	if commits == 0 {
		t.Fatal("no commit events in trace")
	}

	var limited struct {
		Events []json.RawMessage `json:"events"`
	}
	doJSON(t, c, "GET", ts.URL+"/debug/txtrace?limit=3", "", &limited)
	if len(limited.Events) != 3 {
		t.Fatalf("limit=3 returned %d events", len(limited.Events))
	}
	if code := doJSON(t, c, "GET", ts.URL+"/debug/txtrace?limit=0", "", nil); code != http.StatusBadRequest {
		t.Fatalf("limit=0: status %d, want 400", code)
	}
}

// TestMetricsSnapshotRestarts: a scan that outwaits a writer holding its
// stripe restarts with cause "held". /metrics splits
// stm_snapshot_too_old_total by cause, as the TM counts it.
func TestMetricsSnapshotRestarts(t *testing.T) {
	s, ts := newTestServer(t, Config{
		SpaceWords: 1 << 18, shards: 4, buckets: 8, Snapshots: true,
		Geometry: core.Params{Locks: 1, Shifts: 0, Hier: 1},
	})
	c := ts.Client()
	doJSON(t, c, "PUT", ts.URL+"/kv/1", "10", nil)
	tm := s.TM()
	w := tm.NewTx()
	defer w.Release()
	var a uint64
	tm.Atomic(w, func(tx *core.Tx) { a = tx.Alloc(1) })
	w.Begin(false)
	w.Store(a, 1) // holds the one stripe every scan read needs
	done := make(chan error, 1)
	go func() {
		resp, err := c.Get(ts.URL + "/scan")
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	for tm.SnapshotRestarts()[core.RestartHeld] == 0 {
		time.Sleep(time.Millisecond)
	}
	if !w.Commit() {
		t.Fatal("the holding writer failed to commit")
	}
	if err := <-done; err != nil {
		t.Fatalf("GET /scan: %v", err)
	}

	restarts := tm.SnapshotRestarts()
	_, val := scrape(t, c, ts.URL)
	tooOld, _ := val("stm_snapshot_too_old_total")
	var sum float64
	for i, cause := range []string{"trimmed", "miss", "held"} {
		v, ok := val(`stm_snapshot_restarts_total{cause="` + cause + `"}`)
		if !ok {
			t.Fatalf("no stm_snapshot_restarts_total series for cause %q", cause)
		}
		if n := restarts[core.RestartTrimmed+core.SnapRestart(i)]; float64(n) > v {
			t.Fatalf("the TM counted %d %q restarts, /metrics later read %v", n, cause, v)
		}
		sum += v
	}
	if sum != tooOld {
		t.Fatalf("restarts sum to %v on /metrics, too-old reads %v", sum, tooOld)
	}
	if v, _ := val(`stm_snapshot_restarts_total{cause="held"}`); v == 0 {
		t.Fatal("the scan that waited out the writer counted no held restart")
	}
	if v, _ := val(`stm_aborts_total{cause="snapshot-too-old"}`); v != tooOld {
		t.Fatalf(`stm_aborts_total{cause="snapshot-too-old"} = %v, stm_snapshot_too_old_total = %v`, v, tooOld)
	}
}
