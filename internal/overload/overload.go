// Package overload is the host-side analog of the paper's utility
// ordering: when the *machine* running the datapath — not the network
// path — is the bottleneck, scavenger traffic must yield first, just
// as Proteus-S yields on a congested link. It provides the pieces the
// engine wires together: a flow Class (primary vs scavenger), a
// brownout state machine (Normal → Brownout → Shed → Recover) driven
// by per-shard pressure signals, and a deterministic overload Plan the
// scenario harness replays, chaos-style.
//
// The package is pure policy: no sockets, no goroutines, no engine
// types. Detector.Update is a function of (time, signals) plus the
// detector's own small state, so the same arithmetic is unit-testable
// without a datapath and identical on every shard.
package overload

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Class orders flows by who yields first under host pressure. The
// zero value is primary, so an unclassified flow is never shed by
// accident — degradation must be opted into, exactly like running a
// scavenger controller is.
type Class uint8

const (
	// ClassPrimary flows are never paused, shed, or refused admission
	// while any scavenger remains — the engine touches them only at
	// the hard table cap, and then stalest-first among primaries.
	ClassPrimary Class = iota
	// ClassScavenger flows absorb all overload actions first: paused
	// and evicted under Shed, refused admission from Brownout on.
	ClassScavenger
)

func (c Class) String() string {
	if c == ClassScavenger {
		return "scavenger"
	}
	return "primary"
}

// scavengerProtos names the controllers that are scavengers by
// construction. Kept as an explicit set (plus the "-s" suffix
// convention) so classification stays in sync with the exp registry
// without importing it.
var scavengerProtos = map[string]bool{
	"proteus-s": true,
	"ledbat":    true,
	"ledbat-25": true,
	"bbr-s":     true,
}

// ClassOf classifies a protocol name: the known scavenger controllers
// (proteus-s, ledbat, ledbat-25, bbr-s) and anything following the
// "-s" scavenger-variant suffix convention are ClassScavenger;
// everything else — primaries, hybrids, unknowns — is ClassPrimary,
// the safe default.
func ClassOf(proto string) Class {
	p := strings.ToLower(strings.TrimSpace(proto))
	if scavengerProtos[p] || strings.HasSuffix(p, "-s") {
		return ClassScavenger
	}
	return ClassPrimary
}

// State is one stage of the brownout machine.
type State uint8

const (
	// StateNormal: no pressure; everything is admitted.
	StateNormal State = iota
	// StateBrownout: sustained pressure; new scavenger admissions are
	// refused (BUSY) but existing flows are untouched.
	StateBrownout
	// StateShed: acute pressure; existing scavenger flows are paused
	// (senders) or evicted with BUSY (receivers) until pressure falls.
	// Primary flows are never touched.
	StateShed
	// StateRecover: pressure has fallen; paused scavengers resume, but
	// new scavenger admissions stay refused until the state matures to
	// Normal, so a still-hammering flood cannot re-enter instantly.
	StateRecover
)

var stateNames = [...]string{"normal", "brownout", "shed", "recover"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// AdmitScavenger reports whether a new scavenger flow may be admitted
// in this state. Primary admission is never gated on state (only on
// the hard table cap).
func (s State) AdmitScavenger() bool { return s == StateNormal }

// Shedding reports whether existing scavenger flows should be actively
// paused/evicted in this state.
func (s State) Shedding() bool { return s == StateShed }

// Severity orders states by how degraded they are (Normal < Recover <
// Brownout < Shed) — the numeric State values follow the machine's
// lifecycle, not its badness, so "worst shard" aggregation uses this.
func (s State) Severity() int {
	switch s {
	case StateRecover:
		return 1
	case StateBrownout:
		return 2
	case StateShed:
		return 3
	}
	return 0
}

// Signals is one shard's pressure snapshot, sampled once per event-
// loop pass. Each field is the engine's cheapest honest proxy for one
// exhaustion mode; the detector folds them into a single scalar.
type Signals struct {
	// FlowOccupancy is live flows over the shard's table cap, 0..1.
	FlowOccupancy float64
	// TxBacklog is the fraction of the tx staging batch still unsent
	// after a flush pass — nonzero only when the socket can't drain.
	TxBacklog float64
	// RxSaturation is the recent fraction of socket reads that filled
	// every rx slot: 1.0 means the shard never catches up with arrival.
	RxSaturation float64
	// SendErrStreak counts consecutive tx flushes that hit
	// ENOBUFS/ENOMEM-class soft errors.
	SendErrStreak int
}

// Detector thresholds: pressure at which Normal degrades to Brownout
// and at which shedding starts, and below which an elevated state
// begins recovery — the gap to brownoutAt is the hysteresis band that
// stops the machine flapping at a threshold. errStreak is the send-error
// streak treated as pressure 1.0; shorter streaks contribute
// proportionally. The machine depends on recoverAt < brownoutAt ≤ shedAt.
const (
	brownoutAt = 0.85
	shedAt     = 0.95
	recoverAt  = 0.70
	errStreak  = 16
)

// Config tunes the detector. The zero value takes the default below.
type Config struct {
	// RecoverHold is how long pressure must stay below the recover
	// threshold before Recover matures to Normal (seconds). Default 1.0.
	RecoverHold float64
}

// pressure folds one signal snapshot into a scalar in [0, 1]: the max
// over the normalized exhaustion modes. Max, not a weighted sum — any
// single exhausted resource is sufficient to take the host down, so
// averaging a full flow table against an idle socket would understate
// exactly the case that matters.
func pressure(sig Signals) float64 {
	p := math.Max(sig.FlowOccupancy, sig.TxBacklog)
	p = math.Max(p, sig.RxSaturation)
	p = math.Max(p, float64(sig.SendErrStreak)/errStreak)
	return clamp01(p)
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Detector is one shard's brownout state machine. Not safe for
// concurrent use: it is owned by the shard goroutine, and anything
// cross-goroutine reads the engine's atomic mirror of State instead.
type Detector struct {
	hold       float64 // Config.RecoverHold
	state      State
	pressure   float64
	belowSince float64 // when pressure last fell below recoverAt
}

// NewDetector builds a detector with cfg (zero value = defaults).
func NewDetector(cfg Config) *Detector {
	if cfg.RecoverHold <= 0 {
		cfg.RecoverHold = 1.0
	}
	return &Detector{hold: cfg.RecoverHold}
}

// State returns the current state without updating.
func (d *Detector) State() State { return d.state }

// Pressure returns the last computed pressure scalar.
func (d *Detector) Pressure() float64 { return d.pressure }

// Update advances the machine with one signal snapshot at time now
// (seconds, any monotone clock) and returns the resulting state.
func (d *Detector) Update(now float64, sig Signals) State {
	p := pressure(sig)
	d.pressure = p
	switch d.state {
	case StateNormal:
		if p >= shedAt {
			d.state = StateShed
		} else if p >= brownoutAt {
			d.state = StateBrownout
		}
	case StateBrownout:
		if p >= shedAt {
			d.state = StateShed
		} else if p < recoverAt {
			d.state = StateRecover
			d.belowSince = now
		}
	case StateShed:
		if p < recoverAt {
			d.state = StateRecover
			d.belowSince = now
		}
	case StateRecover:
		switch {
		case p >= shedAt:
			d.state = StateShed
		case p >= brownoutAt:
			d.state = StateBrownout
		case p >= recoverAt:
			// Pressure climbed back into the hysteresis band: restart
			// the hold. Recovery requires *sustained* calm.
			d.belowSince = now
		case now-d.belowSince >= d.hold:
			d.state = StateNormal
		}
	}
	return d.state
}

// Plan is a deterministic overload scenario: phases of synthetic host
// pressure the harness applies to a running engine, the overload
// analog of a chaos.Plan. Pure data; the engine harness interprets it.
type Plan struct {
	Phases []Phase `json:"phases"`
}

// PhaseKind names one overload scenario ingredient.
type PhaseKind string

const (
	// KindFlood admits Flows scavenger flows at At and stops (and
	// abandons) them at At+Dur — the flow-flood scenario.
	KindFlood PhaseKind = "flood"
	// KindAckStarve admits Flows scavenger flows aimed at a mute
	// endpoint that never acks — the slow-receiver starvation scenario.
	KindAckStarve PhaseKind = "ack-starve"
)

// Phase is one scheduled load segment, active on [At, At+Dur).
type Phase struct {
	Kind  PhaseKind `json:"kind"`
	At    float64   `json:"at"`
	Dur   float64   `json:"dur"`
	Flows int       `json:"flows"`
}

func (p Phase) String() string {
	return fmt.Sprintf("%s@%.1fs+%.1fs ×%d", p.Kind, p.At, p.Dur, p.Flows)
}

// String renders the plan for logs.
func (p Plan) String() string {
	if len(p.Phases) == 0 {
		return "no load"
	}
	parts := make([]string, len(p.Phases))
	for i, ph := range p.Phases {
		parts[i] = ph.String()
	}
	return strings.Join(parts, "; ")
}

// Canonical clamps, quantizes (milliseconds), and time-orders the plan
// — the same normal form discipline as chaos.Plan.Canonical, so plans
// embed cleanly in replay files. Unknown kinds and zero-flow phases
// are dropped; durations get a 1 ms floor.
func (p Plan) Canonical() Plan {
	var out Plan
	for _, ph := range p.Phases {
		switch ph.Kind {
		case KindFlood, KindAckStarve:
		default:
			continue
		}
		if ph.Flows <= 0 {
			continue
		}
		ph.At = round3(math.Max(0, ph.At))
		ph.Dur = round3(math.Max(0.001, ph.Dur))
		out.Phases = append(out.Phases, ph)
	}
	sort.SliceStable(out.Phases, func(i, j int) bool {
		a, b := out.Phases[i], out.Phases[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Kind < b.Kind
	})
	return out
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
