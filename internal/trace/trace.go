// Package trace is the flight-recorder telemetry subsystem: a typed
// event model with per-flow ring buffers that the simulator, link,
// transport, and congestion controllers emit into at every decision
// point. It exists so a divergent figure can be debugged from the
// event stream of the run that produced it — per-MI utility terms,
// rate-decision votes, RTT samples, queue depths — instead of ad-hoc
// printfs.
//
// The disabled path is free by construction: components hold a Tracer
// value whose zero value (NopTracer) carries a nil Recorder, and every
// emit method begins with an enabled check the compiler reduces to one
// or two branches — no allocation, no dynamic dispatch. This is
// verified by an allocation-guard test (testing.AllocsPerRun == 0).
//
// A Recorder is bound to exactly one simulation and is not safe for
// concurrent use; figures running in parallel each attach their own.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the event types of the flight recorder.
type Kind uint8

const (
	// KindMIDecision is one finalized monitor interval as the rate
	// controller saw it: target vs measured rate, utility, and the base
	// rate after the decision.
	KindMIDecision Kind = iota
	// KindRateChange is a change of a controller's base sending rate.
	KindRateChange
	// KindUtilitySample is the per-MI utility decomposition: the value
	// plus the metric terms (gradient, deviation, loss) it was computed
	// from.
	KindUtilitySample
	// KindPacketDrop is a packet destroyed anywhere: tail-dropped at the
	// queue, hit by random loss, or declared lost by the sender.
	KindPacketDrop
	// KindQueueDepth is a bottleneck-queue occupancy, one per enqueue.
	KindQueueDepth
	// KindRTTSample is one acknowledged packet's RTT, with the sender's
	// cumulative acked bytes so throughput timelines can be rebuilt
	// exactly from the trace alone.
	KindRTTSample
	// KindModeSwitch is a controller mode/state/utility transition.
	KindModeSwitch
	// KindFault is a path-fault transition (blackout, corruption,
	// restart — emitted by the chaos appliers) or a datapath survival
	// event (stall-watchdog trip and recovery). Note carries the fault
	// or event name; A is 1 on activation and 0 on clearing.
	KindFault

	numKinds
)

var kindNames = [numKinds]string{
	KindMIDecision:    "mi",
	KindRateChange:    "rate",
	KindUtilitySample: "util",
	KindPacketDrop:    "drop",
	KindQueueDepth:    "queue",
	KindRTTSample:     "rtt",
	KindModeSwitch:    "mode",
	KindFault:         "fault",
}

// String returns the short name used in exports and CLI flags.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Mask selects a set of event kinds.
type Mask uint16

// AllEvents enables every kind.
const AllEvents Mask = 1<<numKinds - 1

// MaskOf builds a mask from kinds.
func MaskOf(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether the mask includes k.
func (m Mask) Has(k Kind) bool { return m&(1<<k) != 0 }

// ParseKinds parses a comma-separated kind list ("mi,rate,drop"); the
// empty string and "all" mean AllEvents.
func ParseKinds(s string) (Mask, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return AllEvents, nil
	}
	var m Mask
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		found := false
		for k, name := range kindNames {
			if part == name {
				m |= 1 << Kind(k)
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("trace: unknown event kind %q (have mi,rate,util,drop,queue,rtt,mode,fault)", part)
		}
	}
	return m, nil
}

// Event is one fixed-size flight-recorder record. The payload fields
// A–D are kind-specific; see the JSONL schema in the README and the
// fieldNames table in export.go.
type Event struct {
	T    float64 // virtual time, seconds
	Flow int32   // sender ID; 0 is the link itself
	Kind Kind
	Seq  int64   // MI id (mi, util) or packet sequence (drop, rtt)
	A    float64 // kind-specific payload
	B    float64
	C    float64
	D    float64
	Note string // static label: state/mode/utility name or drop reason
}

// DefaultFlowCap is the default per-flow ring capacity in events —
// large enough to hold every ACK of a -fast timeline figure without
// eviction, small enough (~80 MB worst case) to trace broad sweeps.
const DefaultFlowCap = 1 << 20

// Options configures a Recorder.
type Options struct {
	// Mask selects the event kinds to capture; zero means AllEvents.
	Mask Mask
	// FlowCap is the per-flow ring capacity in events; zero means
	// DefaultFlowCap. When a ring is full the oldest events are
	// overwritten (flight-recorder semantics) and counted as evicted.
	FlowCap int
}

// flowRing is one flow's ring buffer. It grows geometrically up to the
// recorder's capacity, then wraps.
type flowRing struct {
	buf     []Event
	next    int // overwrite position once wrapped
	wrapped bool
	evicted int64
}

func (f *flowRing) push(ev Event, capMax int) {
	if f.wrapped {
		f.buf[f.next] = ev
		f.next++
		if f.next == len(f.buf) {
			f.next = 0
		}
		f.evicted++
		return
	}
	if len(f.buf) < capMax {
		if len(f.buf) == cap(f.buf) {
			// Grow manually so capacity never overshoots capMax.
			n := 2 * cap(f.buf)
			if n == 0 {
				n = 1024
			}
			if n > capMax {
				n = capMax
			}
			grown := make([]Event, len(f.buf), n)
			copy(grown, f.buf)
			f.buf = grown
		}
		f.buf = append(f.buf, ev)
		return
	}
	f.wrapped = true
	f.buf[0] = ev
	f.next = 1
	f.evicted++
}

// events returns the ring's contents oldest-first.
func (f *flowRing) events() []Event {
	if !f.wrapped {
		return f.buf
	}
	out := make([]Event, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	return append(out, f.buf[:f.next]...)
}

// Recorder captures events into per-flow ring buffers. The nil
// Recorder is valid and permanently disabled, so call sites need no
// nil checks beyond the ones built into Tracer's methods.
type Recorder struct {
	mask  Mask
	cap   int
	flows map[int32]*flowRing
}

// NewRecorder builds a recorder with the given options.
func NewRecorder(o Options) *Recorder {
	if o.Mask == 0 {
		o.Mask = AllEvents
	}
	if o.FlowCap <= 0 {
		o.FlowCap = DefaultFlowCap
	}
	return &Recorder{
		mask:  o.Mask,
		cap:   o.FlowCap,
		flows: make(map[int32]*flowRing),
	}
}

// Enabled reports whether kind k is being captured. Safe on nil.
func (r *Recorder) Enabled(k Kind) bool { return r != nil && r.mask&(1<<k) != 0 }

// Tracer returns the emission handle for one flow, creating its ring on
// first use. A nil recorder returns NopTracer.
func (r *Recorder) Tracer(flow int) Tracer {
	if r == nil {
		return Tracer{}
	}
	f := r.flows[int32(flow)]
	if f == nil {
		f = &flowRing{}
		r.flows[int32(flow)] = f
	}
	return Tracer{rec: r, ring: f, flow: int32(flow)}
}

// Flows returns the IDs that have recorded at least one event, sorted.
func (r *Recorder) Flows() []int32 {
	if r == nil {
		return nil
	}
	out := make([]int32, 0, len(r.flows))
	for id, f := range r.flows {
		if len(f.buf) > 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Events returns one flow's captured events oldest-first.
func (r *Recorder) Events(flow int32) []Event {
	if r == nil || r.flows[flow] == nil {
		return nil
	}
	return r.flows[flow].events()
}

// Evicted returns how many of a flow's events were overwritten by ring
// wrap-around; nonzero means the oldest part of the timeline is gone.
func (r *Recorder) Evicted(flow int32) int64 {
	if r == nil || r.flows[flow] == nil {
		return 0
	}
	return r.flows[flow].evicted
}

// Tracer is the per-flow emission handle threaded through the stack.
// The zero value (NopTracer) is disabled; every method starts with an
// enabled check that compiles to an inlined branch, so a disabled
// tracer on a hot path costs nothing and allocates nothing.
type Tracer struct {
	rec  *Recorder
	ring *flowRing
	flow int32
}

// NopTracer is the disabled tracer every component defaults to.
var NopTracer Tracer

// Enabled reports whether kind k would be recorded. Use it to guard
// emissions whose arguments are themselves costly to compute.
func (t Tracer) Enabled(k Kind) bool {
	return t.rec != nil && t.rec.mask&(1<<k) != 0
}

// MIDecision records one finalized monitor interval: the rate it was
// asked to run at, the rate it measured, its utility, and the
// controller's base rate after processing it.
func (t Tracer) MIDecision(now float64, mi int64, targetMbps, measuredMbps, utility, baseRateMbps float64, state string) {
	if t.rec == nil || t.rec.mask&(1<<KindMIDecision) == 0 {
		return
	}
	t.ring.push(Event{T: now, Flow: t.flow, Kind: KindMIDecision, Seq: mi,
		A: targetMbps, B: measuredMbps, C: utility, D: baseRateMbps, Note: state}, t.rec.cap)
}

// RateChange records a base-rate move: the new and previous rates, the
// utility gradient that drove it, and the confidence amplifier.
func (t Tracer) RateChange(now float64, rateMbps, prevMbps, gradient float64, amp int, reason string) {
	if t.rec == nil || t.rec.mask&(1<<KindRateChange) == 0 {
		return
	}
	t.ring.push(Event{T: now, Flow: t.flow, Kind: KindRateChange,
		A: rateMbps, B: prevMbps, C: gradient, D: float64(amp), Note: reason}, t.rec.cap)
}

// UtilitySample records the per-MI utility value with the metric terms
// it was computed from.
func (t Tracer) UtilitySample(now float64, mi int64, utility, rttGrad, rttDev, lossRate float64, utilName string) {
	if t.rec == nil || t.rec.mask&(1<<KindUtilitySample) == 0 {
		return
	}
	t.ring.push(Event{T: now, Flow: t.flow, Kind: KindUtilitySample, Seq: mi,
		A: utility, B: rttGrad, C: rttDev, D: lossRate, Note: utilName}, t.rec.cap)
}

// PacketDrop records a destroyed packet. Reasons: "taildrop" (queue
// full), "random" (non-congestion loss), "declared" (sender loss
// detection). queueBytes is the queue occupancy observed at the event.
func (t Tracer) PacketDrop(now float64, seq int64, size, queueBytes int, reason string) {
	if t.rec == nil || t.rec.mask&(1<<KindPacketDrop) == 0 {
		return
	}
	t.ring.push(Event{T: now, Flow: t.flow, Kind: KindPacketDrop, Seq: seq,
		A: float64(size), B: float64(queueBytes), Note: reason}, t.rec.cap)
}

// QueueDepth records one bottleneck-queue occupancy, at an enqueue, along with
// the queueing delay a packet enqueued now would see and the link's
// current drain rate (which varies under RateWalk).
func (t Tracer) QueueDepth(now float64, queueBytes int, queueDelay, linkBps float64) {
	if t.rec == nil || t.rec.mask&(1<<KindQueueDepth) == 0 {
		return
	}
	t.ring.push(Event{T: now, Flow: t.flow, Kind: KindQueueDepth,
		A: float64(queueBytes), B: queueDelay, C: linkBps}, t.rec.cap)
}

// RTTSample records one acknowledged packet: its RTT, the smoothed
// RTT, the sender's cumulative acked bytes (so throughput timelines
// reduce exactly from the trace), and bytes left in flight.
func (t Tracer) RTTSample(now float64, seq int64, rtt, srtt float64, ackedBytes int64, inflight int) {
	if t.rec == nil || t.rec.mask&(1<<KindRTTSample) == 0 {
		return
	}
	t.ring.push(Event{T: now, Flow: t.flow, Kind: KindRTTSample, Seq: seq,
		A: rtt, B: srtt, C: float64(ackedBytes), D: float64(inflight)}, t.rec.cap)
}

// ModeSwitch records a controller state or utility-function transition,
// with one kind-specific context value (e.g. the rate at the switch).
func (t Tracer) ModeSwitch(now float64, mode string, value float64) {
	if t.rec == nil || t.rec.mask&(1<<KindModeSwitch) == 0 {
		return
	}
	t.ring.push(Event{T: now, Flow: t.flow, Kind: KindModeSwitch, A: value, Note: mode}, t.rec.cap)
}

// Fault records a path-fault transition or a survival-machinery event.
// name is the fault kind ("blackout", "corrupt", ...) or the event
// ("watchdog-trip", "watchdog-recover", "peer-restart"); active is 1 on
// activation and 0 on clearing; value is kind-specific (probability,
// clock offset, idle or outage seconds, resume rate).
func (t Tracer) Fault(now float64, name string, active, value float64) {
	if t.rec == nil || t.rec.mask&(1<<KindFault) == 0 {
		return
	}
	t.ring.push(Event{T: now, Flow: t.flow, Kind: KindFault, A: active, B: value, Note: name}, t.rec.cap)
}
