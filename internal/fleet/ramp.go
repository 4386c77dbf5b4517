package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// RampPolicy configures the automatic challenger weight schedule. The ramp
// only ever moves a challenger's weight — the champion's declared weight is
// never touched — so the worst a bad policy can do is park the challenger at
// zero.
type RampPolicy struct {
	// Steps is the ascending weight schedule the challenger walks once its
	// shadow measurements clear the guard, e.g. {1, 5, 25}.
	Steps []uint32
	// Hold is the minimum time spent at each step before advancing.
	Hold time.Duration
	// MinSamples gates the first step: the challenger must have been shadow-
	// scored at least this often (post generation reset) before taking
	// traffic.
	MinSamples uint64
	// Divergence guard: the ramp freezes (weight back to zero) when the
	// challenger's shadow stats cross any of these thresholds. Zero values
	// disable the corresponding check.
	MaxTop1Mismatch float64 // freeze when Top1MismatchRate exceeds this
	MinRankOverlap  float64 // freeze when MeanRankOverlap falls below this
	MinCoverage     float64 // freeze when Coverage falls below this
	// Promote swaps the challenger's model into the champion slot after the
	// final step's hold elapses, advancing the interning base so newly learned
	// vocabulary becomes servable. Without it the ramp parks at the last step.
	Promote bool
}

// validate rejects policies the state machine cannot run.
func (p RampPolicy) validate() error {
	if len(p.Steps) == 0 {
		return errors.New("fleet: ramp policy needs at least one step")
	}
	var prev uint32
	for _, w := range p.Steps {
		if w == 0 {
			return errors.New("fleet: ramp steps must be positive")
		}
		if w < prev {
			return errors.New("fleet: ramp steps must be non-decreasing")
		}
		prev = w
	}
	return nil
}

// RampStatus is one observation of the ramp state machine, surfaced through
// /v1/ingest.
type RampStatus struct {
	Arm        string       `json:"arm"`
	Armed      bool         `json:"armed"` // a challenger generation is being ramped
	Step       int          `json:"step"`  // -1 = shadow-only (not yet taking traffic)
	Weight     uint32       `json:"weight"`
	Frozen     bool         `json:"frozen"`
	Reason     string       `json:"reason,omitempty"` // why the ramp froze
	Generation uint64       `json:"generation"`       // challenger slot generation being ramped
	Promotions uint64       `json:"promotions"`
	Shadow     *ShadowStats `json:"shadow,omitempty"`
	StepSince  time.Time    `json:"step_since"`
}

// Ramp walks one challenger arm's weight up a RampPolicy schedule, driven by
// the arm's live shadow divergence measurements. It is a deterministic state
// machine over explicit timestamps: tests drive Tick directly, production
// runs it from a ticker via Run.
//
// Lifecycle per challenger generation: the ramp idles until the challenger
// slot's generation changes (an ingestion push landed); it then resets the
// slot's shadow counters and waits for MinSamples clean measurements; walks
// weight through Steps, holding each for Hold while re-checking the guard
// every tick; and finally (with Promote) swaps the challenger into the
// champion slot, returns its weight to zero and goes back to idle. A guard
// violation at any point zeroes the weight and freezes the ramp until a new
// generation arrives or an operator calls Unfreeze.
type Ramp struct {
	rt  *Router
	arm string
	pol RampPolicy

	// statsFn is rt.ShadowStatsFor in production; tests substitute a stub to
	// drive the state machine deterministically.
	statsFn func(string) (ShadowStats, bool)

	mu         sync.Mutex
	armed      bool
	step       int // -1 = shadow-only
	frozen     bool
	reason     string
	lastGen    uint64
	stepSince  time.Time
	promotions uint64

	// Observability (optional, via SetObservability): transition counters
	// and a tracer into which each transition is force-retained, so ramp
	// decisions — rare and always interesting — are inspectable on
	// /v1/traces next to the request traces.
	tracer      *obs.Tracer
	cSteps      *obs.Counter
	cFreezes    *obs.Counter
	cPromotions *obs.Counter
}

// SetObservability wires the ramp's transition counters into reg
// (ramp_steps_total, ramp_freezes_total, ramp_promotions_total) and retains
// one forced trace per transition in tracer. Either argument may be nil.
// Call before Run; the fields are not synchronised against a running
// ticker.
func (r *Ramp) SetObservability(reg *obs.Registry, tracer *obs.Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if reg != nil {
		r.cSteps = reg.Counter("ramp_steps_total")
		r.cFreezes = reg.Counter("ramp_freezes_total")
		r.cPromotions = reg.Counter("ramp_promotions_total")
	}
	r.tracer = tracer
}

// noteTransition records one ramp state transition: a bump on c (when
// wired) and a forced single-event trace attributing the transition to the
// schedule step index. Callers hold r.mu.
func (r *Ramp) noteTransition(c *obs.Counter, outcome string, step int) {
	if c != nil {
		c.Inc()
	}
	if r.tracer == nil {
		return
	}
	tr := r.tracer.Start()
	tr.Event("ramp", step, outcome)
	tr.Force()
	r.tracer.Finish(tr, false)
}

// NewRamp builds a ramp for the named challenger arm (any declared arm except
// the champion). The current slot generation is taken as already-handled:
// ramping starts with the next push into the slot.
func NewRamp(rt *Router, arm string, pol RampPolicy) (*Ramp, error) {
	if err := pol.validate(); err != nil {
		return nil, err
	}
	var target *Arm
	for _, a := range rt.arms[1:] {
		if a.header[0] == arm {
			target = a
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("fleet: ramp target %q is not a non-champion arm", arm)
	}
	return &Ramp{
		rt:      rt,
		arm:     arm,
		pol:     pol,
		statsFn: rt.ShadowStatsFor,
		step:    -1,
		lastGen: target.slot.State().Gen,
	}, nil
}

// armRef returns the challenger arm (set membership was validated at
// construction).
func (r *Ramp) armRef() *Arm {
	for _, a := range r.rt.arms {
		if a.header[0] == r.arm {
			return a
		}
	}
	return nil
}

// Tick advances the state machine one observation at the given time and
// returns the resulting status. now is event time: production passes
// time.Now(), tests pass a synthetic clock.
func (r *Ramp) Tick(now time.Time) RampStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	arm := r.armRef()

	// New challenger generation: restart the ramp from shadow-only, clearing
	// any freeze — the frozen verdict belonged to the previous generation.
	if gen := arm.slot.State().Gen; gen != r.lastGen {
		r.lastGen = gen
		r.armed = true
		r.step = -1
		r.frozen = false
		r.reason = ""
		r.stepSince = now
		_ = r.rt.SetWeight(r.arm, 0)
		r.rt.ResetShadow(r.arm)
		r.noteTransition(nil, "start", -1)
		return r.statusLocked()
	}
	if !r.armed || r.frozen {
		return r.statusLocked()
	}

	stats, ok := r.statsFn(r.arm)
	if ok && stats.Samples >= r.pol.MinSamples {
		if why := r.pol.breach(stats); why != "" {
			r.frozen = true
			r.reason = why
			frozeAt := r.step
			r.step = -1
			_ = r.rt.SetWeight(r.arm, 0)
			r.noteTransition(r.cFreezes, "freeze", frozeAt)
			return r.statusLocked()
		}
	}

	switch {
	case r.step == -1:
		if ok && stats.Samples >= r.pol.MinSamples {
			r.step = 0
			r.stepSince = now
			_ = r.rt.SetWeight(r.arm, r.pol.Steps[0])
			r.noteTransition(r.cSteps, "advance", 0)
		}
	case now.Sub(r.stepSince) >= r.pol.Hold:
		if r.step+1 < len(r.pol.Steps) {
			r.step++
			r.stepSince = now
			_ = r.rt.SetWeight(r.arm, r.pol.Steps[r.step])
			r.noteTransition(r.cSteps, "advance", r.step)
		} else if r.pol.Promote {
			if err := r.rt.Promote(r.arm); err != nil {
				r.frozen = true
				r.reason = "promote failed: " + err.Error()
				frozeAt := r.step
				r.step = -1
				_ = r.rt.SetWeight(r.arm, 0)
				r.noteTransition(r.cFreezes, "freeze", frozeAt)
			} else {
				r.promotions++
				r.armed = false
				finalStep := r.step
				r.step = -1
				r.stepSince = now
				r.noteTransition(r.cPromotions, "promote", finalStep)
			}
		}
	}
	return r.statusLocked()
}

// breach returns a human-readable reason when stats violate the guard, or "".
func (p RampPolicy) breach(s ShadowStats) string {
	if p.MaxTop1Mismatch > 0 && s.Top1MismatchRate > p.MaxTop1Mismatch {
		return fmt.Sprintf("top1 mismatch %.3f > %.3f", s.Top1MismatchRate, p.MaxTop1Mismatch)
	}
	if p.MinRankOverlap > 0 && s.MeanRankOverlap < p.MinRankOverlap {
		return fmt.Sprintf("rank overlap %.3f < %.3f", s.MeanRankOverlap, p.MinRankOverlap)
	}
	if p.MinCoverage > 0 && s.Coverage < p.MinCoverage {
		return fmt.Sprintf("coverage %.3f < %.3f", s.Coverage, p.MinCoverage)
	}
	return ""
}

// Unfreeze clears a frozen verdict so the current generation may ramp again —
// the operator override after investigating a divergence report.
func (r *Ramp) Unfreeze() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frozen = false
	r.reason = ""
}

// Status reports the current ramp state without advancing it.
func (r *Ramp) Status() RampStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusLocked()
}

func (r *Ramp) statusLocked() RampStatus {
	st := RampStatus{
		Arm:        r.arm,
		Armed:      r.armed,
		Step:       r.step,
		Weight:     r.armRef().Weight(),
		Frozen:     r.frozen,
		Reason:     r.reason,
		Generation: r.lastGen,
		Promotions: r.promotions,
		StepSince:  r.stepSince,
	}
	if s, ok := r.statsFn(r.arm); ok {
		st.Shadow = &s
	}
	return st
}

// Run calls Tick once per period every until ctx ends, then returns ctx's
// error. The period bounds how quickly the schedule can advance; Hold
// should be a multiple of it.
func (r *Ramp) Run(ctx context.Context, every time.Duration) error {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case now := <-t.C:
			r.Tick(now)
		}
	}
}
