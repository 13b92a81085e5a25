package obs

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry renders registered instruments in the Prometheus text
// exposition format (version 0.0.4) without importing any client
// library. Registration happens at construction time (it panics on
// invalid or conflicting registrations, like prometheus.MustRegister);
// scraping takes one mutex around the render, never touching a record
// path.
type Registry struct {
	mu       sync.Mutex
	fams     map[string]*family
	onScrape []func()
}

// Labels is one instrument's constant label set; rendered sorted by key.
type Labels map[string]string

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type family struct {
	name, help string
	kind       metricKind
	metrics    []*metric
}

type metric struct {
	labels string         // pre-rendered, sorted: `k1="v1",k2="v2"` or ""
	fn     func() float64 // counterFunc / gaugeFunc value source
	hist   *Histogram
	scale  float64  // multiplies raw histogram values on exposition (ns -> s: 1e-9)
	bounds []uint64 // `le` boundaries in RAW histogram units, ascending
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// renderLabels validates and renders a label set sorted by key.
func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		if !nameRE.MatchString(k) {
			panic(fmt.Sprintf("obs: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q supplies the surrounding quotes and escapes `\`, `"` and
		// newlines exactly as the exposition format requires.
		fmt.Fprintf(&b, "%s=%q", k, ls[k])
	}
	return b.String()
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// register adds one metric to its family, creating or type-checking it.
func (r *Registry) register(name, help string, kind metricKind, m *metric) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %v and %v", name, f.kind, kind))
	}
	for _, ex := range f.metrics {
		if ex.labels == m.labels {
			panic(fmt.Sprintf("obs: duplicate metric %s{%s}", name, m.labels))
		}
	}
	f.metrics = append(f.metrics, m)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time: every total is maintained by the layer that owns it, and the
// registry only renders it.
func (r *Registry) CounterFunc(name, help string, ls Labels, fn func() float64) {
	r.register(name, help, kindCounter, &metric{labels: renderLabels(ls), fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, ls Labels, fn func() float64) {
	r.register(name, help, kindGauge, &metric{labels: renderLabels(ls), fn: fn})
}

// Histogram registers h for exposition as `name_bucket`/`name_sum`/
// `name_count`. bounds are the `le` boundaries in h's RAW units,
// ascending; scale converts raw units for exposition (latencies are
// recorded in nanoseconds and exposed in seconds with scale 1e-9).
func (r *Registry) Histogram(name, help string, ls Labels, h *Histogram, scale float64, bounds []uint64) {
	if h == nil {
		panic("obs: Histogram registered with nil histogram")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	r.register(name, help, kindHistogram, &metric{
		labels: renderLabels(ls), hist: h, scale: scale, bounds: bounds,
	})
}

// OnScrape registers a hook run (under the registry lock) at the start
// of every scrape — the place to refresh cached snapshots that several
// CounterFunc/GaugeFunc closures then read consistently.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every family, sorted by name, in the text
// exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.onScrape {
		fn()
	}
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		f := r.fams[n]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		ms := make([]*metric, len(f.metrics))
		copy(ms, f.metrics)
		sort.Slice(ms, func(i, j int) bool { return ms[i].labels < ms[j].labels })
		for _, m := range ms {
			switch {
			case m.hist != nil:
				writeHistogram(&b, f.name, m)
			default:
				writeSample(&b, f.name, m.labels, formatFloat(m.fn()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(b, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(b, "%s{%s} %s\n", name, labels, value)
}

func writeHistogram(b *strings.Builder, name string, m *metric) {
	snap := m.hist.Snapshot()
	join := func(extra string) string {
		if m.labels == "" {
			return extra
		}
		return m.labels + "," + extra
	}
	for _, bound := range m.bounds {
		// 12 significant digits ('g' drops trailing zeros) absorbs the
		// binary-float noise of bound*1e-9 so 1000ns renders as 1e-06.
		le := strconv.FormatFloat(float64(bound)*m.scale, 'g', 12, 64)
		writeSample(b, name+"_bucket", join(`le="`+le+`"`),
			strconv.FormatUint(snap.CumulativeLE(bound), 10))
	}
	writeSample(b, name+"_bucket", join(`le="+Inf"`), strconv.FormatUint(snap.Count, 10))
	writeSample(b, name+"_sum", m.labels, formatFloat(float64(snap.Sum)*m.scale))
	writeSample(b, name+"_count", m.labels, strconv.FormatUint(snap.Count, 10))
}

// Handler serves the registry over HTTP (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// LatencyBounds is the default `le` boundary set for latency histograms
// recorded in nanoseconds: 1µs .. 10s, roughly log-spaced.
func LatencyBounds() []uint64 {
	return []uint64{
		1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
		100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
		10_000_000, 25_000_000, 50_000_000, 100_000_000, 250_000_000, 500_000_000,
		1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
	}
}

// SizeBounds is the default `le` boundary set for size/count histograms
// (batch sizes): powers of two 1 .. 4096.
func SizeBounds() []uint64 {
	return []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}
