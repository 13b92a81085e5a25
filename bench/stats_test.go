//go:build linux

package main

import (
	"math"
	"strings"
	"testing"

	"tinystm/internal/kvproto"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}, {0.01, 1}} {
		if got, ok := percentile(s, c.p); !ok || got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, %v; want %v", c.p, got, ok, c.want)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("an empty sample has no percentile")
	}
	// 1000 values 1..1000: p99 is the 990th, leaving ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got, _ := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) for each input.
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

// One window full of stalls must not move the windowed p99, and the count
// of samples beyond the quantile must be the smallest window's.
func TestWindowedQuantileIgnoresOneBadWindow(t *testing.T) {
	var due, lat []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 1000; i++ {
			due = append(due, float64(w)+float64(i)/1000)
			v := 1 + float64(i)/1000 // 1.000 .. 1.999 in every window
			if w == 2 {
				v += 500 // the stall
			}
			lat = append(lat, v)
		}
	}
	got, beyond, ok := windowedQuantile(due, lat, 5, 5, 0.99)
	if !ok || math.Abs(got-1.989) > 1e-9 {
		t.Errorf("windowed p99 = %v, %v; want 1.989 (the clean windows' p99)", got, ok)
	}
	if beyond != 10 {
		t.Errorf("samples beyond each window's p99 = %d, want 10", beyond)
	}
	// A slowdown that lasts is in most windows and must show.
	for i := range lat {
		if due[i] >= 2 {
			lat[i] = 700
		}
	}
	if got, _, _ := windowedQuantile(due, lat, 5, 5, 0.99); got != 700 {
		t.Errorf("three slow windows of five: windowed p99 = %v, want 700", got)
	}
	if _, _, ok := windowedQuantile(nil, nil, 5, 5, 0.99); ok {
		t.Error("no samples, no quantile")
	}
}

const scrapeBefore = `# HELP stm_commits_total Committed transactions.
# TYPE stm_commits_total counter
stm_commits_total 100
stm_aborts_total{cause="validate"} 5
stm_aborts_total{cause="killed"} 1
stmkvd_request_seconds_bucket{op="get",surface="proto",le="1e-06"} 10
stmkvd_request_seconds_bucket{op="get",surface="proto",le="1e-05"} 90
stmkvd_request_seconds_bucket{op="get",surface="proto",le="+Inf"} 100
stmkvd_request_seconds_bucket{op="get",surface="http",le="1e-06"} 7
stmkvd_request_seconds_bucket{op="get",surface="http",le="+Inf"} 7
`

const scrapeAfter = `stm_commits_total 1100
stm_aborts_total{cause="validate"} 25
stm_aborts_total{cause="killed"} 1
stmkvd_request_seconds_bucket{op="get",surface="proto",le="1e-06"} 10
stmkvd_request_seconds_bucket{op="get",surface="proto",le="1e-05"} 590
stmkvd_request_seconds_bucket{op="get",surface="proto",le="+Inf"} 1100
stmkvd_request_seconds_bucket{op="put",surface="proto",le="1e-06"} 0
stmkvd_request_seconds_bucket{op="put",surface="proto",le="1e-05"} 0
stmkvd_request_seconds_bucket{op="put",surface="proto",le="+Inf"} 0
stmkvd_request_seconds_bucket{op="get",surface="http",le="1e-06"} 7
stmkvd_request_seconds_bucket{op="get",surface="http",le="+Inf"} 7
`

func TestPromDeltaAndBucketQuantile(t *testing.T) {
	before, err := parseProm(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.sub(before)
	if got := d["stm_commits_total"]; got != 1000 {
		t.Errorf("commits delta = %v, want 1000", got)
	}
	if got := d.sum("stm_aborts_total"); got != 20 {
		t.Errorf("aborts delta over all causes = %v, want 20", got)
	}
	if got := d.sum("stm_aborts_total", `cause="killed"`); got != 0 {
		t.Errorf("killed delta = %v, want 0", got)
	}
	// Between the scrapes the proto surface saw 1000 requests: none under
	// 1us, 500 in (1us, 10us], 500 above. The median is the top of the
	// middle bucket; p25 interpolates half-way into it.
	bs := d.buckets("stmkvd_request_seconds", `surface="proto"`)
	if len(bs) != 3 || bs[2].count != 1000 {
		t.Fatalf("proto buckets = %+v", bs)
	}
	if got, ok := bucketQuantile(bs, 0.5); !ok || math.Abs(got-1e-5) > 1e-12 {
		t.Errorf("p50 = %v, %v; want 1e-05", got, ok)
	}
	if got, _ := bucketQuantile(bs, 0.25); math.Abs(got-5.5e-6) > 1e-12 {
		t.Errorf("p25 = %v, want 5.5e-06", got)
	}
	// Above the last finite bound the estimate is that bound.
	if got, _ := bucketQuantile(bs, 0.99); got != 1e-5 {
		t.Errorf("p99 = %v, want the last finite bound 1e-05", got)
	}
	// Nothing happened on the HTTP surface: no quantile, not a zero.
	if _, ok := bucketQuantile(d.buckets("stmkvd_request_seconds", `surface="http"`), 0.5); ok {
		t.Error("an idle histogram must have no quantile")
	}
	if _, err := parseProm(strings.NewReader("garbage\n")); err == nil {
		t.Error("a line without a value must be rejected")
	}
}

func TestStatsAndTuningExtraction(t *testing.T) {
	before := map[string]any{
		"commits":    float64(10),
		"durability": map[string]any{"checkpoints": map[string]any{"count": float64(1)}},
	}
	after := map[string]any{
		"commits":    float64(250),
		"cm":         "karma",
		"durability": map[string]any{"checkpoints": map[string]any{"count": float64(4)}, "wal": map[string]any{"appends": float64(77)}},
	}
	if got := jsonDelta(before, after, "durability.checkpoints.count"); got != 3 {
		t.Errorf("checkpoint delta = %v, want 3", got)
	}
	// The WAL block exists only once the log is open: absent counts as 0.
	if got := jsonDelta(before, after, "durability.wal.appends"); got != 77 {
		t.Errorf("appends delta = %v, want 77", got)
	}
	if _, ok := jsonNum(after, "cm"); ok {
		t.Error("a string is not a number")
	}
	if _, ok := jsonNum(after, "commits.nested"); ok {
		t.Error("walking through a number must fail")
	}

	ev := func(locks, next float64, idle bool) any {
		return map[string]any{"idle": idle,
			"params": map[string]any{"locks": locks, "shifts": float64(0), "hier": float64(1)},
			"next":   map[string]any{"locks": next, "shifts": float64(0), "hier": float64(1)}}
	}
	tuning := map[string]any{"events": []any{ev(256, 512, false), ev(512, 512, false), ev(512, 512, true)}}
	if got := lastMoveAge(tuning); got != 2*tuningPeriodS {
		t.Errorf("last move age = %v, want two periods", got)
	}
	tuning["events"] = append(tuning["events"].([]any), ev(512, 1024, false))
	if got := lastMoveAge(tuning); got != 0 {
		t.Errorf("the newest event moved: age = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{req: 0, name: "kvproto.enc_req", parent: "request", start: 0, end: 10},
		{req: 0, name: "kvstore.get", parent: "request", start: 10, end: 70},
		{req: 0, name: "request", start: 0, end: 100},
		{req: 1, name: "kvstore.get", parent: "request", start: 200, end: 230},
		{req: 1, name: "request", start: 200, end: 240},
		{req: 1, name: "wire.request", start: 300, end: 900},
	}
	self, count, overfull := selfTimes(spans)
	if overfull != 0 {
		t.Errorf("overfull = %d, want 0", overfull)
	}
	// request self = (100 - 10 - 60) + (40 - 30) = 40; children are leaves.
	want := map[string]int64{"request": 40, "kvstore.get": 90, "kvproto.enc_req": 10, "wire.request": 600}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	if count["request"] != 2 || count["kvstore.get"] != 2 {
		t.Errorf("counts = %v", count)
	}
	// Children that outlast their parent can only be broken instrumentation.
	spans = append(spans, span{req: 1, name: "kvproto.dec_resp", parent: "request", start: 230, end: 260})
	if _, _, overfull := selfTimes(spans); overfull != 1 {
		t.Errorf("overfull = %d, want 1", overfull)
	}
}

func TestLedgerCheckerRejectsDoctoredSum(t *testing.T) {
	res := make([]kvproto.BatchResult, ledgerKeys)
	for j := range res {
		res[j] = kvproto.BatchResult{Val: ledgerInit(j), Found: true}
	}
	if err := checkLedger(res); err != nil {
		t.Fatalf("the preload itself must pass: %v", err)
	}
	// A transfer moves value without changing the sum, wrap-around included.
	res[3].Val += 12345
	res[9].Val -= 12345
	res[0].Val -= 2_000_000 // below zero: wraps mod 2^64
	res[1].Val += 2_000_000
	if err := checkLedger(res); err != nil {
		t.Errorf("balanced transfers must pass: %v", err)
	}
	res[5].Val++
	if err := checkLedger(res); err == nil {
		t.Error("a sum off by one must be rejected")
	}
	res[5].Val--
	res[7].Found = false
	if err := checkLedger(res); err == nil {
		t.Error("a missing ledger key must be rejected")
	}
	if err := checkLedger(res[:10]); err == nil {
		t.Error("a short result list must be rejected")
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{name: "open_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "sat_goodput_ops_s", better: "higher", bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	if v, _ := verdict(lower, tight(100), tight(105)); v != "ok" {
		t.Errorf("5%% worse inside a 10%% bound: %s", v)
	}
	if v, _ := verdict(lower, tight(100), tight(115)); v != "regressed" {
		t.Errorf("15%% slower: %s", v)
	}
	if v, _ := verdict(lower, tight(100), tight(50)); v != "ok" {
		t.Errorf("twice as fast is not a regression: %s", v)
	}
	if v, _ := verdict(higher, tight(100), tight(85)); v != "regressed" {
		t.Errorf("15%% less goodput: %s", v)
	}
	if v, _ := verdict(higher, tight(100), tight(120)); v != "ok" {
		t.Errorf("more goodput is not a regression: %s", v)
	}
	wide := []float64{70, 100, 130, 90, 125}
	if v, _ := verdict(lower, wide, tight(100)); v != "unresolved" {
		t.Errorf("a spread wider than the bound cannot resolve a change: %s", v)
	}
}
