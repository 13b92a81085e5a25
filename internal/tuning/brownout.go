package tuning

import "tinystm/internal/resilience"

// brownout is the server's overload ladder (resilience.Brownout) as a
// Controller: it feeds the ladder the period's request p99 and sample
// count. The ladder itself decides nothing about WHAT to shed — the
// server maps levels to request classes — the controller's job is only
// the single-stepper discipline: exactly one goroutine steps it, once per
// period, INCLUDING idle periods. Idle matters: an overloaded server that
// sheds its way back to quiescence must walk the ladder down again, and
// the only evidence of calm is periods with no (or few) requests. Without
// RuntimeConfig.Latency the ladder only ever sees calm.
type brownout struct{ b *resilience.Brownout }

// NewBrownout returns the overload-shed controller over the server's
// ladder. The runtime becomes its single stepper; the server reads
// Level() concurrently on every request.
func NewBrownout(b *resilience.Brownout) Controller { return brownout{b} }

func (c brownout) Name() string { return BrownoutName }

func (c brownout) Knob() Knob { return levelKnob(c.b.Level()) }

func levelKnob(l resilience.Level) Knob { return Knob{N: int(l), Name: l.String()} }

func (c brownout) Observe(s Sample) Decision {
	d := Decision{Controller: BrownoutName, From: c.Knob()}
	next, moved := c.b.Decide(s.LatP99, s.LatSamples)
	d.To, d.Moved = levelKnob(next), moved
	return d
}

// Apply is one atomic store; it cannot fail, so Revert has nothing to
// resynchronize (Knob reads the live level).
func (c brownout) Apply(d Decision) error {
	c.b.Set(resilience.Level(d.To.N))
	return nil
}
func (c brownout) Revert(Decision) {}
