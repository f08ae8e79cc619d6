package bbr

import (
	"pccproteus/internal/netem"
	"pccproteus/internal/stats"
	"pccproteus/internal/trace"
	"pccproteus/internal/transport"
)

const (
	mss = float64(netem.MTU)

	startupGain = 2.885 // 2/ln2
	drainGain   = 1 / 2.885
	cwndGain    = 2.0

	btlbwWindowRounds = 10   // bandwidth filter, in round trips
	rtpropWindow      = 10.0 // seconds
	probeRTTDuration  = 0.2  // seconds
)

type mode int

const (
	modeStartup mode = iota
	modeDrain
	modeProbeBW
	modeProbeRTT
)

func (m mode) String() string {
	switch m {
	case modeStartup:
		return "startup"
	case modeDrain:
		return "drain"
	case modeProbeBW:
		return "probe_bw"
	default:
		return "probe_rtt"
	}
}

// snapshot is the delivery state a packet carries from send to ack.
type snapshot struct {
	Delivered   int64
	DeliveredAt float64 // when that delivered count was reached
	SentAt      float64
}

// snapshots holds the snapshot of every packet sent and neither acked
// nor declared lost, in a power-of-two ring indexed by sequence number:
// no hashing and, once it spans the window, no allocation.
type snapshots struct{ slots []snapSlot }

type snapSlot struct {
	seq  int64
	live bool
	snap snapshot
}

// Put records v for seq, replacing what seq held. Live sequence numbers
// span at most a window, so a live slot of another seq in the way means
// the ring is too small: it doubles, which keeps live entries apart.
func (r *snapshots) Put(seq int64, v snapshot) {
	for {
		if n := len(r.slots); n > 0 {
			if s := &r.slots[seq&int64(n-1)]; !s.live || s.seq == seq {
				*s = snapSlot{seq, true, v}
				return
			}
		}
		old := r.slots
		r.slots = make([]snapSlot, max(64, 2*len(old)))
		for _, s := range old {
			if s.live {
				r.slots[s.seq&int64(len(r.slots)-1)] = s
			}
		}
	}
}

// Take removes and returns seq's snapshot; ok iff put and not taken since.
func (r *snapshots) Take(seq int64) (v snapshot, ok bool) {
	if n := len(r.slots); n > 0 {
		if s := &r.slots[seq&int64(n-1)]; s.live && s.seq == seq {
			s.live = false
			return s.snap, true
		}
	}
	return v, false
}

// model is the path model both BBR versions run: delivery-rate samples
// into a windowed-max bottleneck bandwidth, RTT samples into a
// windowed-min propagation delay, round counting, inflight accounting
// and the full-pipe estimator. The state machine on top of it — and
// so what the mode and pacing gain are — belongs to the controller.
type model struct {
	mode       mode
	btlbw      stats.WindowedMax // bytes/sec, keyed by round count
	rtprop     stats.WindowedMin // seconds, keyed by time
	pacingGain float64

	delivered     int64
	deliveredAt   float64
	snapshots     snapshots
	round         int64
	nextRoundSeq  int64
	maxSeqSent    int64
	fullBW        float64
	fullBWRounds  int
	rtpropStamp   float64 // when rtprop was last reduced
	probeRTTUntil float64
	inflight      int

	debugSample func(rate float64)

	started      bool
	nowForRtprop float64 // latest ack time, for time-keyed filter expiry

	tr trace.Tracer
}

func newModel() model {
	return model{
		mode:       modeStartup,
		pacingGain: startupGain,
		btlbw:      stats.WindowedMax{Window: btlbwWindowRounds},
		rtprop:     stats.WindowedMin{Window: rtpropWindow},
	}
}

// SetTracer implements transport.TraceAware: mode transitions are
// emitted as ModeSwitch events (value = pacing gain), with BBR-S's
// forced yield as "probe_rtt_yield" and V2's ProbeBW phases by name.
func (m *model) SetTracer(t trace.Tracer) { m.tr = t }

// BtlBw returns the current bottleneck bandwidth estimate in bytes/sec.
func (m *model) BtlBw() float64 {
	bw, _ := m.btlbw.Get(float64(m.round))
	return bw
}

// RTProp returns the current propagation-delay estimate in seconds.
func (m *model) RTProp() float64 {
	rt, ok := m.rtprop.Get(m.nowForRtprop)
	if !ok {
		return 0.1
	}
	return rt
}

func (m *model) bdp() float64 { return m.BtlBw() * m.RTProp() }

// send books a sent packet and reports whether it is the flow's first.
func (m *model) send(now float64, pkt *transport.SentPacket) (first bool) {
	if m.deliveredAt == 0 {
		m.deliveredAt = now
	}
	m.snapshots.Put(pkt.Seq, snapshot{Delivered: m.delivered, DeliveredAt: m.deliveredAt, SentAt: now})
	if pkt.Seq > m.maxSeqSent {
		m.maxSeqSent = pkt.Seq
	}
	m.inflight += pkt.Size
	if m.started {
		return false
	}
	m.started = true
	m.rtpropStamp = now
	return true
}

// loss drops a lost packet's snapshot and its inflight bytes.
func (m *model) loss(loss transport.Loss) {
	m.snapshots.Take(loss.Seq)
	m.inflight -= loss.Bytes
	if m.inflight < 0 {
		m.inflight = 0
	}
}

// ack books the acked bytes and reports whether they end a round trip:
// a round ends when a packet sent at or after the previous round's
// end-of-send is acknowledged. The caller runs its per-round work, then
// sample, so that work reads the estimates from before this ack.
func (m *model) ack(ack transport.Ack) (roundEnd bool) {
	m.nowForRtprop = ack.Now
	m.inflight -= ack.Bytes
	if m.inflight < 0 {
		m.inflight = 0
	}
	m.delivered += int64(ack.Bytes)
	m.deliveredAt = ack.Now
	if ack.Seq < m.nextRoundSeq {
		return false
	}
	m.round++
	m.nextRoundSeq = m.maxSeqSent + 1
	return true
}

// sample feeds the ack's delivery rate and RTT to the filters.
func (m *model) sample(ack transport.Ack) {
	// Delivery-rate sample, per the BBR rate-sample algorithm: the
	// interval is the larger of the send interval and the ack (delivery)
	// interval, so queue growth between send and ack does not deflate
	// the sample and pipe-filling probes can ratchet the estimate up.
	if snap, ok := m.snapshots.Take(ack.Seq); ok {
		sendElapsed := snap.SentAt - snap.DeliveredAt
		ackElapsed := ack.Now - snap.DeliveredAt
		elapsed := ackElapsed
		if sendElapsed > elapsed {
			elapsed = sendElapsed
		}
		if elapsed > 0 {
			rate := float64(m.delivered-snap.Delivered) / elapsed
			if m.debugSample != nil {
				m.debugSample(rate)
			}
			m.btlbw.Add(float64(m.round), rate)
		}
	}

	// RTprop sample.
	if prev, ok := m.rtprop.Get(ack.Now); !ok || ack.RTT < prev {
		m.rtpropStamp = ack.Now
	}
	m.rtprop.Add(ack.Now, ack.RTT)
}

// checkFullPipe is the Startup full-pipe estimator, run once a round:
// the pipe is full after three rounds without 25% bandwidth growth.
func (m *model) checkFullPipe() {
	bw := m.BtlBw()
	if bw > m.fullBW*1.25 {
		m.fullBW = bw
		m.fullBWRounds = 0
	} else {
		m.fullBWRounds++
	}
}

func (m *model) enterDrain(now float64) {
	m.mode = modeDrain
	m.pacingGain = drainGain
	m.tr.ModeSwitch(now, "drain", m.pacingGain)
}

// PacingRate implements transport.Controller.
func (m *model) PacingRate() float64 {
	bw := m.BtlBw()
	if bw == 0 {
		// No estimate yet: start at ~10 packets per assumed 100 ms RTT.
		return 10 * mss / 0.1 * m.pacingGain
	}
	if m.mode == modeProbeRTT {
		return bw // pacing is irrelevant; cwnd clamps inflight
	}
	return m.pacingGain * bw
}
