package pathmodel

import (
	"pccproteus/internal/wire"
)

// ShimUpdates compiles the model's step schedule into the wire shim's
// timed-update records: the same Steps enumeration ApplySim replays as
// sim events, expressed as wire.ShimUpdate rows for
// engine.ShimLoopbackConfig.Schedule (or a hand-rolled shim driver).
// Outage windows are omitted — pair this with FaultPlan, whose chaos
// blackout plan the shim loopback already knows how to execute — and capacity
// samples arrive pre-clamped to the netem floor, so a fade can never
// alias into ShimUpdate's "zero means keep" convention.
func ShimUpdates(m Model, horizon float64) []wire.ShimUpdate {
	steps := Steps(m, horizon)
	out := make([]wire.ShimUpdate, 0, len(steps))
	var last State
	for i, st := range steps {
		s := st.State
		if i > 0 && s.Mbps == last.Mbps && s.ExtraDelay == last.ExtraDelay {
			last = s
			continue // only the Down flag changed; FaultPlan owns it
		}
		out = append(out, wire.ShimUpdate{
			At:         st.At,
			RateMbps:   s.Mbps,
			ExtraDelay: s.ExtraDelay,
			LossProb:   -1, // keep
		})
		last = s
	}
	return out
}
