package fetch

import (
	"math"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// simTickEvery is the periodic scheduler tick inside the simulator —
// the event-driven analog of the wire fetcher's rtoCheckEvery cadence.
const simTickEvery = 0.010

// SimTransfer runs the same scheduler core as the wire Fetcher on a
// netem.Path inside the simulator: requests travel the uncongested
// reverse path (the direction acks normally take, with the same
// blackout and restart-flush semantics), segment responses traverse the
// forward bottleneck, and the controller hears the identical callback
// sequence. No payload bytes move — byte accounting comes from the
// object geometry — so a 100 GB background fetch costs the simulator
// only its packet events.
type SimTransfer struct {
	S    *sim.Sim
	Path *netem.Path
	CC   transport.Controller
	// ID tags the response packets' FlowID for tracing.
	ID int
	// ObjectBytes is the object size (the sim server is synthetic).
	ObjectBytes int64
	// SegSize and Window as in Config.
	SegSize int
	Window  int
	// Burst is the request-train length per pacing event.
	Burst int
	// OnComplete fires once when the transfer finishes.
	OnComplete func(now float64)

	core      *Core
	totalSegs int64
	nextSend  float64
	timerSet  bool
	blocked   bool
	started   bool
	completed bool
}

// Start begins the fetch at the current simulation time.
func (t *SimTransfer) Start() error {
	if t.started {
		return nil
	}
	core, err := NewCore(Config{
		CC: t.CC, SegSize: t.SegSize, Window: t.Window,
	})
	if err != nil {
		return err
	}
	if t.Burst <= 0 {
		t.Burst = transport.DefaultBurst
	}
	t.core = core
	t.totalSegs = TotalSegs(t.ObjectBytes, core.cfg.SegSize)
	t.started = true
	t.core.book.Touch(t.S.Now())
	t.tick()
	t.trySend()
	return nil
}

// Done reports whether the transfer has completed.
func (t *SimTransfer) Done() bool { return t.completed }

// DeliveredBytes returns bytes delivered in order so far — the goodput
// numerator experiments measure.
func (t *SimTransfer) DeliveredBytes() int64 { return t.core.DeliveredBytes() }

// Stats exposes the scheduler core's counters.
func (t *SimTransfer) Stats() CoreStats { return t.core.Stats() }

// tick is the periodic survival scan; it reschedules itself until the
// transfer completes.
func (t *SimTransfer) tick() {
	if t.completed {
		return
	}
	now := t.S.Now()
	if req, ok := t.core.Tick(now); ok {
		t.sendRequest(req, now)
	}
	t.checkDone(now)
	if t.completed {
		return
	}
	if t.blocked || !t.timerSet {
		t.blocked = false
		if t.nextSend < now {
			t.nextSend = now
		}
		t.trySend()
	}
	t.S.After(simTickEvery, t.tick)
}

func (t *SimTransfer) trySend() {
	if t.timerSet || t.completed || !t.started {
		return
	}
	if _, ok := t.core.PeekSize(); !ok {
		t.blocked = true
		return
	}
	now := t.S.Now()
	at := t.nextSend
	if at < now {
		at = now
	}
	t.timerSet = true
	t.S.At(at, t.emit)
}

func (t *SimTransfer) emit() {
	t.timerSet = false
	if t.completed {
		return
	}
	now := t.S.Now()
	burst := t.Burst
	if burst > 1 {
		// Randomized train length, as the simulated sender: stochastic
		// aggregate arrivals are what give a near-saturated bottleneck
		// queue its realistic variance.
		burst = 1 + t.S.Rand().Intn(2*burst-1)
	}
	sent := 0
	for i := 0; i < burst; i++ {
		size, ok := t.core.PeekSize()
		if !ok {
			t.blocked = true
			break
		}
		req, issued := t.core.Issue(now, now)
		if !issued {
			break
		}
		t.sendRequest(req, now)
		sent += size
	}
	if sent == 0 {
		return
	}
	rate := t.core.PacingRate()
	if math.IsInf(rate, 1) || rate <= 0 {
		t.nextSend = now
	} else {
		t.nextSend = now + float64(sent)/rate
	}
	t.trySend()
}

// sendRequest carries one request across the reverse path to the
// synthetic server, which answers by offering the response packet to
// the forward bottleneck. Reverse-path blackouts destroy the request
// (the core's RTO re-issues it); a restart flush discards it in flight
// — the exact semantics acks have.
func (t *SimTransfer) sendRequest(req Request, now float64) {
	t.Path.SendAck(now, func(_ *netem.Packet, sent float64) { t.serve(req, sent) }, nil, now)
}

// serve is the stateless sim server: geometry from the configured
// object size, response size from the segment index, the request's
// send stamp echoed into the packet's SentAt — mirroring the wire
// server's echo of the scheduled-send stamp.
func (t *SimTransfer) serve(req Request, virt float64) {
	size := wire.SegmentHeaderLen + wire.DigestLen
	if !req.Meta {
		n := int64(t.core.cfg.SegSize)
		if rem := t.ObjectBytes - req.Seg*int64(t.core.cfg.SegSize); rem < n {
			n = rem
		}
		if n < 0 {
			n = 0
		}
		size = wire.SegmentHeaderLen + int(n)
	}
	pkt := &netem.Packet{FlowID: t.ID, Seq: req.Nonce, Size: size, SentAt: virt}
	seg, meta := req.Seg, req.Meta
	t.Path.Send(pkt, func(p *netem.Packet, arrival float64) {
		t.deliverResp(p, seg, meta, arrival)
	})
}

func (t *SimTransfer) deliverResp(p *netem.Packet, seg int64, meta bool, arrival float64) {
	if t.completed {
		return
	}
	recvAt := arrival + t.Path.StampOffset
	t.core.OnResponse(Response{
		Nonce: p.Seq, Seg: seg, Meta: meta,
		TotalSegs: t.totalSegs, ObjSize: t.ObjectBytes,
	}, recvAt, arrival)
	t.checkDone(arrival)
	if t.completed {
		return
	}
	if t.blocked || !t.timerSet {
		t.blocked = false
		if t.nextSend < arrival {
			t.nextSend = arrival
		}
		t.trySend()
	}
}

func (t *SimTransfer) checkDone(now float64) {
	if !t.completed && t.core.Done() {
		t.completed = true
		if t.OnComplete != nil {
			t.OnComplete(now)
		}
	}
}
