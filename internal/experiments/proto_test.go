package experiments

import (
	"strings"
	"testing"
	"time"

	"tinystm/internal/kvclient"
)

// TestProtoSweepQuick runs the full sweep shape at toy scale: both wire
// surfaces answer, the storm arms differ only in the gate, whose width
// stays where the arm set it, and the tables carry the admission columns.
func TestProtoSweepQuick(t *testing.T) {
	sc := tinyScale()
	cfg := ProtoConfig{
		Keys:            64,
		Theta:           0.6,
		ReadPcts:        []int{50},
		Workers:         4,
		Duration:        40 * time.Millisecond,
		Storm:           kvclient.Mix{Keys: 64, Theta: 0.99, ReadPct: 10, CASPct: 30, BatchPct: 30},
		AdmissionWidths: []int{2},
		Period:          5 * time.Millisecond,
		Seed:            42,
	}
	r := ProtoSweep(sc, cfg)
	if len(r.Surface) != 2 {
		t.Fatalf("surface points = %d, want 2", len(r.Surface))
	}
	for _, p := range r.Surface {
		if p.Ops == 0 {
			t.Fatalf("surface %q completed no ops", p.Surface)
		}
		if p.Errors != 0 {
			t.Fatalf("surface %q saw %d errors on a clean run", p.Surface, p.Errors)
		}
		if p.Commits == 0 {
			t.Fatalf("surface %q: the server committed nothing", p.Surface)
		}
	}
	if r.Surface[0].Surface != "http" || r.Surface[1].Surface != "binary" {
		t.Fatalf("surface order %q, %q", r.Surface[0].Surface, r.Surface[1].Surface)
	}
	if len(r.Storm) != 2 {
		t.Fatalf("storm points = %d, want 2", len(r.Storm))
	}
	off, on := r.Storm[0], r.Storm[1]
	if off.Gate != "off" || on.Gate != "on" {
		t.Fatalf("storm gates %q, %q", off.Gate, on.Gate)
	}
	if off.AdmWidth != 0 {
		t.Fatalf("ungated storm arm reports width %d", off.AdmWidth)
	}
	if on.AdmWidth != 2 {
		t.Fatalf("gated storm arm ended at width %d, want the 2 it was built with", on.AdmWidth)
	}
	if on.Ops == 0 || off.Ops == 0 {
		t.Fatal("storm arm completed no ops")
	}
	// Both arms are real servers with the runtime attached, geometry
	// pinned: tuning periods pass, the lock table never moves.
	for _, p := range r.Storm {
		if len(p.Events) == 0 {
			t.Fatalf("storm arm %q recorded no tuning events", p.Gate)
		}
		if p.Reconfigs != 0 {
			t.Fatalf("storm arm %q reconfigured %d times under pinned bounds", p.Gate, p.Reconfigs)
		}
	}

	var sb strings.Builder
	st := r.SurfaceTable()
	st.Render(&sb)
	gt := r.StormTable()
	gt.Render(&sb)
	out := sb.String()
	for _, want := range []string{"binary", "http", "admission", "adm width", "waited"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q", want)
		}
	}
}
