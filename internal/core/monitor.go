package core

import (
	"pccproteus/internal/stats"
)

// mi is one monitor interval: a stretch of transmission at (nominally)
// one sending rate whose packets are tracked until every one is acked or
// lost, at which point the MI's metrics and utility are computed (§3).
type mi struct {
	id          int64
	targetMbps  float64
	start       float64
	end         float64 // sealed once a send occurs past this time
	sealed      bool
	discarded   bool // spans an app pause; its utility is meaningless
	outstanding int
	sentBytes   int64
	sentPkts    int
	lostPkts    int
	ackedPkts   int
	sendTimes   []float64 // per retained RTT sample
	rtts        []float64
	lastSend    float64
}

// miResult is a finalized MI ready for the rate controller.
type miResult struct {
	id      int64
	rate    float64 // measured average send rate, Mbps
	target  float64 // the rate the controller asked for, Mbps
	utility float64
	metrics Metrics
}

// monitor owns the MI lifecycle and metric computation, including the
// per-ACK and per-MI noise-tolerance mechanisms.
type monitor struct {
	cfg     *Config
	current *mi
	pending map[int64]*mi
	free    []*mi // finalized MIs, reused with their sample slices
	nextID  int64

	// Per-ACK RTT sample filtering state (§5): consecutive ACK-interval
	// ratio test plus the "ignore until below moving average" latch.
	lastAckAt    float64
	lastInterval float64
	ewmaRTT      *stats.EWMA
	filtering    bool
	filteredOut  int64

	noise   *noiseState
	devEWMA stats.EWMA
}

func newMonitor(cfg *Config) *monitor {
	return &monitor{
		cfg:     cfg,
		pending: make(map[int64]*mi),
		ewmaRTT: stats.NewEWMA(),
		noise:   newNoiseState(cfg),
		devEWMA: stats.EWMA{Alpha: 0.25, Beta: 0.25},
	}
}

// beginMI opens a fresh MI at the given target rate.
func (mo *monitor) beginMI(now, targetMbps, srtt float64) *mi {
	dur := mo.cfg.MIMin
	if srtt > 0 {
		d := srtt * mo.cfg.MIRTTMult
		// Jitter the MI length slightly (±10%) so competing senders do
		// not phase-lock their probing.
		d *= 1 + 0.2*(mo.cfg.Rng.Float64()-0.5)
		if d > dur {
			dur = d
		}
	}
	mo.nextID++
	if len(mo.free) == 0 {
		mo.free = append(mo.free, new(mi))
	}
	m := mo.free[len(mo.free)-1]
	mo.free = mo.free[:len(mo.free)-1]
	*m = mi{id: mo.nextID, targetMbps: targetMbps, start: now, end: now + dur, sendTimes: m.sendTimes[:0], rtts: m.rtts[:0]}
	mo.current = m
	mo.pending[m.id] = m
	return m
}

// onSend records a transmitted packet against the current MI and reports
// whether the MI's time is up (the controller should roll to the next).
func (mo *monitor) onSend(now float64, bytes int) (miID int64, expired bool) {
	m := mo.current
	m.outstanding++
	m.sentPkts++
	m.sentBytes += int64(bytes)
	m.lastSend = now
	return m.id, now >= m.end
}

// seal marks the current MI as no longer accepting packets. If every
// packet of the MI was already acknowledged before sealing (possible at
// low rates, where the pacing gap exceeds the RTT), the MI finalizes
// right here — otherwise it would wait forever for an ack that already
// came.
func (mo *monitor) seal(now float64, u UtilityFunc) (miResult, bool) {
	m := mo.current
	if m == nil || m.sealed {
		return miResult{}, false
	}
	m.sealed = true
	if m.lastSend > m.start {
		m.end = m.lastSend
	}
	return mo.maybeFinalize(m, u)
}

// discardOpen marks every unfinished MI as discarded (app pause) and
// returns how many were affected.
func (mo *monitor) discardOpen() int64 {
	n := int64(0)
	for _, m := range mo.pending {
		if !m.discarded {
			m.discarded = true
			n++
		}
	}
	return n
}

// ackFilter implements §5 per-ACK RTT sample filtering: when the ratio
// between two consecutive ACK intervals exceeds the threshold, RTT
// samples are ignored until one falls below the EWMA RTT average.
// Returns true when the sample should be kept.
//
// The interval clock is the receiver-side arrival stamp, not the
// sender-side ack arrival time: the burstiness the filter guards
// against (ack compression distorting RTT samples) is a data-path
// property, visible in the spacing of arrivals at the receiver, while
// sender-side spacing additionally carries reverse-path and host
// scheduling jitter. On a real wire that jitter trips the ratio test
// spuriously — worst of all during the slow-start overload transient,
// where the filter would then discard the climbing RTTs that are the
// exit signal, because no sample dips below the EWMA until the queue
// drains.
func (mo *monitor) ackFilter(recvAt, rtt float64) bool {
	if mo.cfg.UseAckFilter {
		if mo.lastAckAt > 0 {
			interval := recvAt - mo.lastAckAt
			if mo.lastInterval > 0 && interval > mo.cfg.AckIntervalRatio*mo.lastInterval {
				mo.filtering = true
			}
			mo.lastInterval = interval
		}
		mo.lastAckAt = recvAt
		if mo.filtering {
			if mo.ewmaRTT.Initialized() && rtt < mo.ewmaRTT.Avg() {
				mo.filtering = false
			} else {
				mo.filteredOut++
				mo.ewmaRTT.Add(rtt)
				return false
			}
		}
	} else {
		mo.lastAckAt = recvAt
	}
	mo.ewmaRTT.Add(rtt)
	return true
}

// onAck records an acknowledgment for MI miID, recvAt being the
// receiver-side arrival stamp used as the ack filter's interval clock.
// If that MI is now complete, its result is returned.
func (mo *monitor) onAck(recvAt float64, miID int64, sentAt, rtt float64, u UtilityFunc) (miResult, bool) {
	m, ok := mo.pending[miID]
	if !ok {
		return miResult{}, false
	}
	m.outstanding--
	m.ackedPkts++
	if mo.ackFilter(recvAt, rtt) {
		// Packets released in one pacing train share a send timestamp.
		// Collapse them to the train head's (minimum) RTT: the tail of a
		// train queues behind its own siblings, which says nothing about
		// the network, and the induced send-time-correlated ramp would
		// otherwise read as a (heavily penalized) RTT gradient.
		if n := len(m.sendTimes); n > 0 && m.sendTimes[n-1] == sentAt {
			if rtt < m.rtts[n-1] {
				m.rtts[n-1] = rtt
			}
		} else {
			m.sendTimes = append(m.sendTimes, sentAt)
			m.rtts = append(m.rtts, rtt)
		}
	}
	return mo.maybeFinalize(m, u)
}

// onLoss records a loss for MI miID, possibly completing it.
func (mo *monitor) onLoss(miID int64, u UtilityFunc) (miResult, bool) {
	m, ok := mo.pending[miID]
	if !ok {
		return miResult{}, false
	}
	m.outstanding--
	m.lostPkts++
	return mo.maybeFinalize(m, u)
}

func (mo *monitor) maybeFinalize(m *mi, u UtilityFunc) (miResult, bool) {
	if !m.sealed || m.outstanding > 0 {
		return miResult{}, false
	}
	delete(mo.pending, m.id)
	// Wiped on reuse, not here: m is read below and may still be current.
	mo.free = append(mo.free, m)
	if m.discarded || m.sentPkts == 0 {
		return miResult{}, false
	}
	met := mo.computeMetrics(m)
	dur := m.end - m.start
	if dur <= 0 {
		dur = mo.cfg.MIMin
	}
	return miResult{
		id:      m.id,
		rate:    float64(m.sentBytes) * 8 / dur / 1e6,
		target:  m.targetMbps,
		utility: u.Utility(met),
		metrics: met,
	}, true
}

// computeMetrics derives the MI's performance metrics and applies the
// per-MI regression-error tolerance and the MI-history trending
// tolerance (§5).
func (mo *monitor) computeMetrics(m *mi) Metrics {
	dur := m.end - m.start
	if dur <= 0 {
		dur = mo.cfg.MIMin
	}
	met := Metrics{
		Duration: dur,
		// Utility is computed on the commanded rate: the pacer hits the
		// target by construction over any horizon longer than one train,
		// while the bytes-sent estimate inside a short MI is quantized by
		// train boundaries and would corrupt hi/lo probe comparisons.
		RateMbps: m.targetMbps,
		LossRate: float64(m.lostPkts) / float64(m.sentPkts),
	}
	if len(m.rtts) >= 2 {
		reg := stats.LinearRegression(m.sendTimes, m.rtts)
		met.AvgRTT = stats.Mean(m.rtts)
		met.RTTGradient = reg.Slope
		met.RTTDeviation = stats.StdDev(m.rtts)

		gradZero, devZero := false, false
		switch {
		case mo.cfg.UseRegressionTolerance:
			// Regression error, normalized by MI duration so it is
			// commensurate with the gradient (a relative error). A fit on
			// fewer than four points has a near-zero residual by
			// construction, so it cannot vouch for its own slope: treat
			// it as noise (the trending veto below can still restore it).
			regErr := reg.Residual / dur
			if abs(met.RTTGradient) < regErr || len(m.rtts) < 4 {
				gradZero, devZero = true, true
			}
		case mo.cfg.FixedGradTolerance > 0:
			// Vivace-style flat tolerance on the gradient only.
			if abs(met.RTTGradient) < mo.cfg.FixedGradTolerance {
				gradZero = true
			}
		}
		if mo.cfg.UseTrending {
			gradAnomalous, devAnomalous := mo.noise.observe(met)
			// Trending veto: a sample several deviations from its moving
			// average is statistically unlikely to be noise and must not
			// be ignored, even when within per-MI tolerance.
			if gradAnomalous {
				gradZero = false
			}
			if devAnomalous {
				devZero = false
			}
		}
		if gradZero {
			met.RTTGradient = 0
		}
		if devZero {
			met.RTTDeviation = 0
		}
	} else if len(m.rtts) >= 1 {
		met.AvgRTT = stats.Mean(m.rtts)
	}
	// The deviation the utility sees is smoothed over the last few MIs.
	// Raw per-MI deviation is wave-phase noise: whether a transient queue
	// oscillation happened to overlap this particular MI is a coin flip,
	// and feeding that coin flip into hi/lo probe comparisons randomizes
	// the scavenger's decisions. The smoothed level turns the deviation
	// term into a consistent bias: −d·σ̄·Δx on every pair, which is what
	// makes the scavenger drift down while competition persists — and it
	// decays within a few MIs once the channel calms, so recovery stays
	// prompt.
	mo.devEWMA.Add(met.RTTDeviation)
	met.RTTDeviation = mo.devEWMA.Avg()
	return met
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
