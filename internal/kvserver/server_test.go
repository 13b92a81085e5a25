package kvserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/tuning"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// TestConfigRejects: a configuration the lower layers cannot run is an
// error from New, never a panic, and the error names what is wrong.
func TestConfigRejects(t *testing.T) {
	ok := Config{SpaceWords: 1 << 16, shards: 2, buckets: 2}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"durability async", func(c *Config) { c.Durability = "async" }, `unknown durability mode "async" (off, group)`},
		{"durability bogus", func(c *Config) { c.Durability = "bogus" }, `unknown durability mode "bogus"`},
		{"group without WALDir", func(c *Config) { c.Durability = DurabilityGroup }, "requires a WAL directory"},
		{"group without snapshots", func(c *Config) { c.Durability, c.WALDir = DurabilityGroup, t.TempDir() }, `durability "group" requires Snapshots`},
		{"shards not a power of two", func(c *Config) { c.shards = 3 }, "Shards (3) must be a power of two"},
		{"buckets not a power of two", func(c *Config) { c.buckets = 6 }, "Buckets (6) must be a power of two"},
		{"space under 1024 words", func(c *Config) { c.SpaceWords = 1023 }, "SpaceWords (1023) must be at least 1024"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok
			tc.edit(&cfg)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("New panicked: %v", p)
				}
			}()
			s, err := New(cfg)
			if err == nil {
				s.Close()
				t.Fatalf("New(%+v) succeeded", cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New error %q, want it to contain %q", err, tc.want)
			}
		})
	}
	s, err := New(ok)
	if err != nil {
		t.Fatalf("the unedited configuration: %v", err)
	}
	s.Close()
}

func doJSON(t *testing.T, client *http.Client, method, url string, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func TestEndpointsRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{SpaceWords: 1 << 18, shards: 4, buckets: 8})
	c := ts.Client()

	// Put, get.
	var ins struct{ Inserted bool }
	if code := doJSON(t, c, "PUT", ts.URL+"/kv/7", "123", &ins); code != 200 || !ins.Inserted {
		t.Fatalf("PUT fresh: code=%d inserted=%v", code, ins.Inserted)
	}
	var got struct{ Key, Val uint64 }
	if code := doJSON(t, c, "GET", ts.URL+"/kv/7", "", &got); code != 200 || got.Val != 123 {
		t.Fatalf("GET: code=%d val=%d", code, got.Val)
	}
	// Overwrite is not an insert.
	if doJSON(t, c, "PUT", ts.URL+"/kv/7", "124", &ins); ins.Inserted {
		t.Fatal("overwrite reported inserted")
	}
	// CAS success and failure.
	var cas struct{ OK bool }
	doJSON(t, c, "POST", ts.URL+"/kv/7/cas", `{"old":124,"new":200}`, &cas)
	if !cas.OK {
		t.Fatal("CAS with correct old failed")
	}
	doJSON(t, c, "POST", ts.URL+"/kv/7/cas", `{"old":999,"new":1}`, &cas)
	if cas.OK {
		t.Fatal("CAS with stale old succeeded")
	}
	// Add.
	var add struct{ Val uint64 }
	doJSON(t, c, "POST", ts.URL+"/kv/7/add", `{"delta":5}`, &add)
	if add.Val != 205 {
		t.Fatalf("Add: val=%d want 205", add.Val)
	}
	// Batch: atomic multi-key.
	var batch struct {
		Results []struct {
			Val   uint64
			Found bool
			OK    bool
		}
	}
	doJSON(t, c, "POST", ts.URL+"/batch",
		`{"ops":[{"op":"put","key":1,"val":10},{"op":"get","key":1},{"op":"add","key":2,"val":3},{"op":"get","key":404}]}`,
		&batch)
	if len(batch.Results) != 4 || !batch.Results[0].OK || batch.Results[1].Val != 10 ||
		batch.Results[2].Val != 3 || batch.Results[3].Found {
		t.Fatalf("batch results: %+v", batch.Results)
	}
	// Delete and 404s.
	if code := doJSON(t, c, "DELETE", ts.URL+"/kv/7", "", nil); code != 200 {
		t.Fatalf("DELETE present: %d", code)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/kv/7", "", nil); code != 404 {
		t.Fatalf("GET deleted: %d", code)
	}
	if code := doJSON(t, c, "DELETE", ts.URL+"/kv/7", "", nil); code != 404 {
		t.Fatalf("DELETE absent: %d", code)
	}
	// Bad inputs.
	if code := doJSON(t, c, "GET", ts.URL+"/kv/notanumber", "", nil); code != 400 {
		t.Fatalf("bad key: %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/batch", `{"ops":[{"op":"zap","key":1}]}`, nil); code != 400 {
		t.Fatalf("bad batch op: %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/batch", `{"ops":[]}`, nil); code != 400 {
		t.Fatalf("empty batch: %d", code)
	}
	// /stats says what the server is; /metrics counts what it did.
	var stats struct {
		Params struct{ Locks uint64 }
	}
	doJSON(t, c, "GET", ts.URL+"/stats", "", &stats)
	if stats.Params.Locks == 0 {
		t.Fatalf("stats: %+v", stats)
	}
	_, val := scrape(t, c, ts.URL)
	if keys, _ := val("stmkvd_keys"); keys != 2 {
		t.Fatalf("stmkvd_keys = %v, want 2", keys)
	}
	if commits, _ := val("stm_commits_total"); commits == 0 {
		t.Fatal("stm_commits_total = 0 after a run of writes")
	}
	// Tuning endpoint without autotune.
	var tun struct{ Enabled bool }
	doJSON(t, c, "GET", ts.URL+"/tuning", "", &tun)
	if tun.Enabled {
		t.Fatal("tuning reported enabled without autotune")
	}
}

// TestAutotuneReconfiguresUnderTraffic is the satellite requirement: a
// tuning.Runtime-attached server must actually reconfigure the live TM
// while synthetic HTTP traffic flows. Short periods make the first tuning
// decision land within milliseconds of traffic starting.
func TestAutotuneReconfiguresUnderTraffic(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		SpaceWords: 1 << 18, shards: 4, buckets: 8,
		Autotune: true,
		Period:   5 * time.Millisecond,
		Samples:  1,
		Geometry: core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1},
		Seed:     42,
	})
	c := ts.Client()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			n := uint64(id)
			for !stop.Load() {
				key := n % 256
				doJSON(t, c, "PUT", fmt.Sprintf("%s/kv/%d", ts.URL, key), "1", nil)
				doJSON(t, c, "GET", fmt.Sprintf("%s/kv/%d", ts.URL, key), "", nil)
				n++
			}
		}(i)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.TM().Stats().Reconfigs >= 1 {
			// /metrics and the /tuning events must agree.
			_, val := scrape(t, c, ts.URL)
			if v, _ := val("stm_reconfigs_total"); v < 1 {
				t.Fatalf("stm_reconfigs_total = %v after a reconfiguration", v)
			}
			var tun struct {
				Enabled bool
				Events  []struct {
					Params, Next wireParams
					Err          *string
				}
			}
			moved := func() bool {
				for _, e := range tun.Events {
					if e.Next != e.Params && e.Err == nil {
						return true
					}
				}
				return false
			}
			// Events may trail the Reconfigure by one trace append; poll briefly.
			for time.Now().Before(deadline) {
				doJSON(t, c, "GET", ts.URL+"/tuning", "", &tun)
				if moved() {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if !tun.Enabled || !moved() {
				t.Fatalf("/tuning disagrees with TM: %+v", tun)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no reconfiguration within 10s of synthetic traffic")
}

// TestServerCloseReleasesDescriptors: handler churn must not leak TM
// descriptor slots, and Close must return every pooled descriptor.
func TestServerCloseReleasesDescriptors(t *testing.T) {
	srv, ts := newTestServer(t, Config{SpaceWords: 1 << 18, shards: 2, buckets: 8})
	c := ts.Client()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < 500; n++ {
				doJSON(t, c, "PUT", fmt.Sprintf("%s/kv/%d", ts.URL, n%64), "9", nil)
			}
		}(i)
	}
	wg.Wait()
	minted, _ := srv.TM().DescriptorCounts()
	if minted > 64 {
		t.Fatalf("server minted %d descriptors for 8 concurrent clients", minted)
	}
	srv.Close()
	minted, free := srv.TM().DescriptorCounts()
	if minted != free {
		t.Fatalf("descriptors leaked at shutdown: minted=%d free=%d", minted, free)
	}
}

func TestBatchTooLargeRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{SpaceWords: 1 << 16, shards: 2, buckets: 8})
	var buf bytes.Buffer
	buf.WriteString(`{"ops":[`)
	for i := 0; i <= maxBatchOps; i++ {
		if i > 0 {
			buf.WriteString(",")
		}
		fmt.Fprintf(&buf, `{"op":"get","key":%d}`, i)
	}
	buf.WriteString(`]}`)
	resp, err := ts.Client().Post(ts.URL+"/batch", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: code=%d", resp.StatusCode)
	}
}

// TestArenaExhaustionReturns507 fills a tiny arena until Alloc fails and
// checks the server answers 507 for the failing write while staying alive
// for subsequent requests.
func TestArenaExhaustionReturns507(t *testing.T) {
	_, ts := newTestServer(t, Config{SpaceWords: 1 << 10, shards: 1, buckets: 4})
	c := ts.Client()
	doJSON(t, c, "PUT", ts.URL+"/kv/0", "1", nil)

	saw507 := false
	for k := uint64(1); k < 1<<10; k++ {
		code := doJSON(t, c, "PUT", fmt.Sprintf("%s/kv/%d", ts.URL, k), "1", nil)
		if code == http.StatusInsufficientStorage {
			saw507 = true
			break
		}
		if code != http.StatusOK {
			t.Fatalf("unexpected code %d before exhaustion", code)
		}
	}
	if !saw507 {
		t.Fatal("arena never exhausted")
	}
	// The server survives: reads and health checks still work.
	if code := doJSON(t, c, "GET", ts.URL+"/kv/0", "", nil); code != http.StatusOK {
		t.Fatalf("server unhealthy after exhaustion: GET -> %d", code)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/healthz", "", nil); code != http.StatusOK {
		t.Fatalf("healthz after exhaustion -> %d", code)
	}
}

// A server without Autotune has no tuning runtime, and /tuning says so.
func TestTuningWithoutAutotune(t *testing.T) {
	_, ts := newTestServer(t, Config{SpaceWords: 1 << 18, shards: 2, buckets: 8})
	var tun struct {
		Enabled bool `json:"enabled"`
	}
	doJSON(t, ts.Client(), "GET", ts.URL+"/tuning", "", &tun)
	if tun.Enabled {
		t.Fatalf("/tuning = %+v on a static server, want everything off", tun)
	}
}

func TestScanEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{SpaceWords: 1 << 18, shards: 4, buckets: 8, Snapshots: true})
	client := ts.Client()
	for k := 0; k < 50; k++ {
		if code := doJSON(t, client, "PUT", fmt.Sprintf("%s/kv/%d", ts.URL, k), fmt.Sprint(k*2), nil); code != http.StatusOK {
			t.Fatalf("PUT status %d", code)
		}
	}
	var out struct {
		Keys     uint64 `json:"keys"`
		Pairs    []struct{ Key, Val uint64 }
		Snapshot bool `json:"snapshot"`
	}
	if code := doJSON(t, client, "GET", ts.URL+"/scan", "", &out); code != http.StatusOK {
		t.Fatalf("GET /scan status %d", code)
	}
	if out.Keys != 50 || len(out.Pairs) != 50 || !out.Snapshot {
		t.Fatalf("scan = %d keys, %d pairs, snapshot=%v", out.Keys, len(out.Pairs), out.Snapshot)
	}
	seen := map[uint64]uint64{}
	for _, p := range out.Pairs {
		seen[p.Key] = p.Val
	}
	for k := uint64(0); k < 50; k++ {
		if seen[k] != k*2 {
			t.Fatalf("scan key %d = %d, want %d", k, seen[k], k*2)
		}
	}
	// limit caps pairs, not the walked-key count.
	if code := doJSON(t, client, "GET", ts.URL+"/scan?limit=7", "", &out); code != http.StatusOK {
		t.Fatalf("GET /scan?limit status %d", code)
	}
	if out.Keys != 50 || len(out.Pairs) != 7 {
		t.Fatalf("limited scan = %d keys, %d pairs, want 50/7", out.Keys, len(out.Pairs))
	}
	if code := doJSON(t, client, "GET", ts.URL+"/scan?limit=0", "", nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit accepted: status %d", code)
	}
	// The scan must have run in snapshot mode (live reads counted).
	if st := s.TM().Stats(); st.SnapshotLiveReads == 0 {
		t.Fatal("/scan did not run as a snapshot transaction")
	}
}

func TestStatsReportsSnapshotCounters(t *testing.T) {
	srv, ts := newTestServer(t, Config{SpaceWords: 1 << 18, shards: 4, buckets: 8, Snapshots: true})
	client := ts.Client()
	doJSON(t, client, "PUT", ts.URL+"/kv/1", "10", nil)
	doJSON(t, client, "PUT", ts.URL+"/kv/1", "11", nil)
	// A scan runs in snapshot mode and registers with the sidecar.
	if code := doJSON(t, client, "GET", ts.URL+"/scan", "", nil); code != http.StatusOK {
		t.Fatalf("GET /scan status %d", code)
	}
	var st struct {
		Snapshots struct {
			Enabled bool `json:"enabled"`
		} `json:"snapshots"`
	}
	if code := doJSON(t, client, "GET", ts.URL+"/stats", "", &st); code != http.StatusOK {
		t.Fatalf("GET /stats status %d", code)
	}
	if !st.Snapshots.Enabled {
		t.Fatalf("snapshot stats %+v", st.Snapshots)
	}
	_, val := scrape(t, client, ts.URL)
	if budget, _ := val("stm_version_budget"); budget == 0 || budget != float64(srv.TM().VersionBudget()) {
		t.Fatalf("stm_version_budget = %v, the TM says %d", budget, srv.TM().VersionBudget())
	}
	if live, _ := val("stm_snapshot_reads_live_total"); live == 0 {
		t.Fatal("scan recorded no snapshot reads")
	}
	if tooOld, _ := val("stm_snapshot_too_old_total"); tooOld != 0 {
		t.Fatalf("%v snapshot-too-old aborts in an uncontended test", tooOld)
	}
}

func TestScanWithoutSnapshotsFallsBack(t *testing.T) {
	_, ts := newTestServer(t, Config{SpaceWords: 1 << 18, shards: 4, buckets: 8})
	client := ts.Client()
	doJSON(t, client, "PUT", ts.URL+"/kv/5", "50", nil)
	var out struct {
		Keys     uint64 `json:"keys"`
		Snapshot bool   `json:"snapshot"`
	}
	if code := doJSON(t, client, "GET", ts.URL+"/scan", "", &out); code != http.StatusOK {
		t.Fatalf("GET /scan status %d", code)
	}
	if out.Keys != 1 || out.Snapshot {
		t.Fatalf("fallback scan = %d keys, snapshot=%v, want 1/false", out.Keys, out.Snapshot)
	}
}

// TestTuningReportsVersionBudget: the version budget is fixed when the TM
// is built. Through an autotuned run with scans, /metrics keeps reporting
// the default 512.
func TestTuningReportsVersionBudget(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		SpaceWords: 1 << 18, shards: 4, buckets: 8,
		Snapshots: true, Autotune: true,
		Period: 2 * time.Millisecond, Samples: 1,
	})
	client := ts.Client()
	rt := srv.Runtime()
	for i := 0; rt.Periods() < 12; i++ {
		if i == 5000 {
			t.Fatalf("only %d tuning periods after %d requests", rt.Periods(), 2*i)
		}
		doJSON(t, client, "PUT", ts.URL+"/kv/"+strconv.Itoa(i%64), strconv.Itoa(i), nil)
		if code := doJSON(t, client, "GET", ts.URL+"/scan", "", nil); code != http.StatusOK {
			t.Fatalf("GET /scan status %d", code)
		}
	}
	rt.Stop()

	_, val := scrape(t, client, ts.URL)
	if budget, _ := val("stm_version_budget"); budget != 512 || srv.TM().VersionBudget() != 512 {
		t.Errorf("version budget %v on /metrics, %d on the TM after %d periods; want 512",
			budget, srv.TM().VersionBudget(), rt.Periods())
	}
	var tun struct {
		Events []json.RawMessage `json:"events"`
	}
	doJSON(t, client, "GET", ts.URL+"/tuning", "", &tun)
	if len(tun.Events) == 0 {
		t.Fatal("/tuning listed no events")
	}
}

// wireParams and parentWireEvent are the /tuning event as clients read it,
// less the admission controller's keys and the request-latency stamp,
// which went with them. They are the frozen client contract: bench/ and
// the smokes read these keys.
type wireParams struct {
	Locks  uint64 `json:"locks"`
	Shifts uint   `json:"shifts"`
	Hier   uint64 `json:"hier"`
}

type parentWireEvent struct {
	Period     *int        `json:"period"`
	Params     *wireParams `json:"params"`
	Throughput *float64    `json:"throughput"`
	Commits    *uint64     `json:"commits"`
	Aborts     *uint64     `json:"aborts"`
	Idle       *bool       `json:"idle"`
	Move       *string     `json:"move"`
	Next       *wireParams `json:"next"`
	Err        *string     `json:"err"`
}

// TestTuningWireKeysFrozen: a period in which the tuner's move failed
// must still render every key clients read, with its JSON type (decoding
// into the struct checks both), and a live /tuning response must keep
// every top-level key, on a gated server with snapshots and on one with
// neither. Both key sets are exact: the keys of removed controllers — the
// version budget's, the admission width's and the overload ladder's, on
// the event and at the top level — the event's request-latency stamp
// (lat_*) and the counts /metrics carries stay gone.
func TestTuningWireKeysFrozen(t *testing.T) {
	ev := tuning.Event{
		Sample: tuning.Sample{Period: 3, Throughput: 1e4, Commits: 100, Aborts: 300},
		From:   core.Params{Locks: 256, Hier: 1}, To: core.Params{Locks: 512, Hier: 1},
		Moved: true, Move: tuning.MoveDoubleLocks, Err: errors.New("refused"),
	}
	raw, err := json.Marshal(wireEvent(ev))
	if err != nil {
		t.Fatal(err)
	}
	var old parentWireEvent
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatalf("event no longer decodes into the old shape: %v\n%s", err, raw)
	}
	eventKeys := make(map[string]bool)
	for v, i := reflect.ValueOf(old), 0; i < v.NumField(); i++ {
		key := v.Type().Field(i).Tag.Get("json")
		eventKeys[key] = true
		if v.Field(i).IsNil() {
			t.Errorf("event lost key %q: %s", key, raw)
		}
	}
	if *old.Move != "1" || old.Next.Locks != 512 || *old.Err != "refused" {
		t.Errorf("event values moved: %s", raw)
	}
	var flat map[string]json.RawMessage
	if err := json.Unmarshal(raw, &flat); err != nil {
		t.Fatal(err)
	}
	for key := range flat {
		if !eventKeys[key] {
			t.Errorf("event renders key %q outside the frozen set: %s", key, raw)
		}
	}

	topKeys := []string{"best", "best_throughput", "current", "enabled", "events", "periods_total", "running"}
	for _, cfg := range []Config{
		{SpaceWords: 1 << 18, shards: 2, buckets: 8, Snapshots: true, AdmissionWidth: 8, Autotune: true, Period: time.Hour},
		{SpaceWords: 1 << 18, shards: 4, buckets: 8, Autotune: true, Period: time.Hour},
	} {
		_, ts := newTestServer(t, cfg)
		var top map[string]json.RawMessage
		doJSON(t, ts.Client(), "GET", ts.URL+"/tuning", "", &top)
		if got := slices.Sorted(maps.Keys(top)); !slices.Equal(got, topKeys) {
			t.Errorf("/tuning top-level keys %v, want exactly %v", got, topKeys)
		}
		raw, err = json.Marshal(top)
		if err != nil {
			t.Fatal(err)
		}
		var typed struct {
			Enabled, Running bool
			Current, Best    wireParams
			BestThroughput   float64 `json:"best_throughput"`
			PeriodsTotal     int     `json:"periods_total"`
			Events           []parentWireEvent
		}
		if err := json.Unmarshal(raw, &typed); err != nil {
			t.Errorf("/tuning top-level keys changed JSON type: %v\n%s", err, raw)
		}
		if !typed.Enabled {
			t.Errorf("/tuning enabled = false on an autotuned server: %s", raw)
		}
		// An hour-long period has measured nothing yet: no best.
		if string(top["best"]) != "null" {
			t.Errorf("/tuning best = %s before any period, want null", top["best"])
		}
	}
}

// TestAdmissionWidthFixedUnderAutotune: the tuning loop never touches the
// admission gate. An autotuned server behind an 8-wide gate runs a hot
// update storm for at least ten tuning periods; the gate is still 8 wide
// and admitted the storm, and neither /metrics nor /tuning says anything
// about an admission controller.
func TestAdmissionWidthFixedUnderAutotune(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		SpaceWords: 1 << 18, shards: 2, buckets: 8, Snapshots: true, AdmissionWidth: 8,
		Autotune: true, Period: 2 * time.Millisecond, Samples: 1,
	})
	c := ts.Client()
	rt := srv.Runtime()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.Post(ts.URL+"/kv/"+strconv.Itoa((w+i)%4)+"/add", "application/json", strings.NewReader(`{"delta":1}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); rt.Periods() < 10; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			break
		}
	}
	close(stop)
	wg.Wait()
	rt.Stop()
	if rt.Periods() < 10 {
		t.Fatalf("only %d tuning periods under the storm", rt.Periods())
	}

	body, val := scrape(t, c, ts.URL)
	if strings.Contains(body, `controller=`) {
		t.Error(`/metrics exports a series with a controller label`)
	}
	if v, _ := val("stmkvd_admission_width"); v != 8 {
		t.Errorf("gate width %v on /metrics after %d periods; want 8", v, rt.Periods())
	}
	if w, _, _, _ := srv.gate.Stats(); w != 8 {
		t.Errorf("gate width %d live after %d periods; want 8", w, rt.Periods())
	}
	if v, _ := val("stmkvd_admission_admitted_total"); v == 0 {
		t.Error("stmkvd_admission_admitted_total = 0 under an update storm")
	}
}
