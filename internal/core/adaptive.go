package core

// This file implements adaptive spare-core allocation: a feedback
// controller that grows and shrinks the epoch-parallel pipeline's active
// slot count at run time from the live commit-lag signal, instead of
// pinning the pipeline at Options.SpareCPUs for the whole recording.
//
// The controller consumes exactly the quantities `dptrace lag` computes
// offline from a finished trace — per-epoch commit lag (commit cycle −
// boundary cycle) and slot occupancy (did this epoch's verification wait
// for a core?) — but samples them online, at the epoch boundary where the
// pipeline model places each epoch's commit. Decisions are made only at
// epoch boundaries, from simulated quantities only, so adaptive
// recordings are exactly as deterministic as fixed-spares ones: the same
// program, seed, and options always yield a bit-identical recording, and
// the recording replays from the log alone like any other.
//
// The policy is a hysteresis rule over a sliding window of samples:
//
//   - GROW (+1 slot) when the lag slope over the window is positive and
//     every epoch in the window had to wait for a free slot — the
//     pipeline is saturated and falling behind boundary arrival.
//   - SHRINK (−1 slot) when no epoch in the window waited and the
//     worst-case lag stayed within one epoch length — the pipeline is
//     drained and has at least one slot of slack.
//   - Otherwise HOLD. A full quiet window must elapse after every
//     decision (the cooldown) before the next one, so the controller
//     never oscillates on the transient the previous decision caused.
//
// Active slots never leave the controller's bounds. Parking a slot lets
// work already scheduled on it finish; unparking one models acquiring a
// core *now* — the slot cannot have been free in the past.

// ctlWindow is the sample window (and cooldown) of the hysteresis rule:
// long enough to see a trend, short enough to react within a few epochs of
// a phase change.
const ctlWindow = 4

// ctlSample is one epoch-boundary observation.
type ctlSample struct {
	epoch  int
	lag    int64
	waited bool
}

// controller is the adaptive spare-core policy; feed it one observe per
// epoch boundary. active stays within [lo, hi], and grows and shrinks
// count its decisions.
type controller struct {
	lo, hi, active int
	grows, shrinks int
	cool           int
	samples        []ctlSample
}

// newController returns a controller bounded to [lo, hi], 1 ≤ lo ≤ hi,
// starting at initial active slots (clamped).
func newController(lo, hi, initial int) *controller {
	return &controller{lo: lo, hi: hi, active: min(max(initial, lo), hi)}
}

// lagSlope fits lag = a + b*epoch by least squares over the window and
// returns b — the same statistic `dptrace lag` reports per recording.
func (c *controller) lagSlope() float64 {
	n := float64(len(c.samples))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, s := range c.samples {
		x, y := float64(s.epoch), float64(s.lag)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// observe feeds one epoch boundary's sample — the epoch index, its commit
// lag in cycles, and whether its verification waited for a free slot —
// and returns the decision it caused: +1 grow, −1 shrink, 0 hold.
// epochCycles scales the drain test (a lag within one epoch length is
// "keeping up").
func (c *controller) observe(epoch int, lag int64, waited bool, epochCycles int64) int {
	c.samples = append(c.samples, ctlSample{epoch: epoch, lag: lag, waited: waited})
	if len(c.samples) > ctlWindow {
		c.samples = c.samples[1:]
	}
	if c.cool > 0 {
		c.cool--
		return 0
	}
	if len(c.samples) < ctlWindow {
		return 0
	}
	saturated, idle := true, true
	var maxLag int64
	for _, s := range c.samples {
		if s.waited {
			idle = false
		} else {
			saturated = false
		}
		if s.lag > maxLag {
			maxLag = s.lag
		}
	}
	switch {
	case saturated && c.lagSlope() > 0 && c.active < c.hi:
		c.active++
		c.grows++
		c.decided()
		return 1
	case idle && maxLag <= epochCycles && c.active > c.lo:
		c.active--
		c.shrinks++
		c.decided()
		return -1
	}
	return 0
}

// decided starts the post-decision quiet period: the window refills from
// scratch and the cooldown must elapse, so the next decision sees only
// epochs scheduled under the new slot count.
func (c *controller) decided() {
	c.cool = ctlWindow
	c.samples = c.samples[:0]
}
