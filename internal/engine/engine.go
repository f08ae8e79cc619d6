package engine

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"pccproteus/internal/netem"
	"pccproteus/internal/overload"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// Config sizes an Engine. The zero value is usable: one shard, batch
// of 32, 2KiB packets.
type Config struct {
	// Shards is the number of event loops (and sockets). Default 1.
	Shards int
	// BatchSize is the number of datagrams staged per socket syscall
	// (recvmmsg/sendmmsg on Linux). Default 32.
	BatchSize int
	// MaxPacket is the largest datagram the engine sends or receives.
	// Default 2048; must cover every flow's PacketSize and MaxAckLen.
	MaxPacket int
	// MaxFlowsPerShard caps each shard's flow table; receiver-side
	// flows beyond it evict the stalest. Default 16384.
	MaxFlowsPerShard int
	// IdleTimeout evicts idle flows after this many seconds.
	// Default 60.
	IdleTimeout float64
	// ListenIP is the bind address for shard sockets ("127.0.0.1"
	// default). Each shard takes its own ephemeral port.
	ListenIP string
	// ListenPort, when nonzero, binds shard i to ListenPort+i instead
	// of an ephemeral port — for daemons that must advertise their
	// shard addresses up front.
	ListenPort int
	// Overload tunes the per-shard brownout detector (zero value =
	// overload.Config defaults).
	Overload overload.Config
	// Seed derives the per-shard jitter RNGs (BUSY retry backoff).
	// Zero is a fixed default, so runs are reproducible by default.
	Seed int64
	// OnFetch, when set, answers fetch requests (fetch.Store.HandleFetch
	// is the implementation): it is handed the decoded request and a
	// MaxPacket-sized tx buffer and returns the encoded SEGMENT response
	// — a prefix of buf — or nil to ignore the request. It runs on shard
	// goroutines, concurrently across shards, so it must only read
	// shared state. MaxPacket must cover the largest response.
	OnFetch func(h wire.FetchHeader, buf []byte) []byte
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.MaxPacket <= 0 {
		c.MaxPacket = 2048
	}
	if c.MaxPacket < wire.MaxAckLen {
		c.MaxPacket = wire.MaxAckLen
	}
	if c.MaxFlowsPerShard <= 0 {
		c.MaxFlowsPerShard = 1 << 14
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60
	}
	if c.ListenIP == "" {
		c.ListenIP = "127.0.0.1"
	}
	return c
}

// FlowConfig describes one sender flow.
type FlowConfig struct {
	// Dst is the peer: an engine shard, possibly behind a wire.Shim.
	Dst netip.AddrPort
	// CC is the flow's congestion controller. Each flow needs its own
	// instance: callbacks run on the owning shard's goroutine.
	CC transport.Controller
	// Limit bounds the transfer in bytes (lost bytes re-credited);
	// zero streams until Stop.
	Limit int64
	// PacketSize is the on-wire datagram size (default netem.MTU,
	// clamped to the engine's MaxPacket).
	PacketSize int
	// Burst is the pacing-train length (default transport.DefaultBurst).
	Burst int
	// RecordRTT keeps every per-ack RTT sample for Flow.RTTSamples —
	// measurement harnesses only; leave off on production flows.
	RecordRTT bool
	// Class orders the flow under host overload: scavenger flows are
	// paused/shed and refused admission before any primary flow is
	// touched. The zero value is primary (never shed); use
	// overload.ClassOf(protoName) to classify by controller name. The
	// class is carried in the top bit of the wire flow ID so the
	// receiving engine sheds class-aware too.
	Class overload.Class
}

// Flow is the cross-goroutine handle for one sender flow.
type Flow struct {
	id uint32
	s  *senderFlow
}

// ID returns the engine-assigned wire flow ID (nonzero).
func (fl *Flow) ID() uint32 { return fl.id }

// Done is closed once a finite transfer is fully acked.
func (fl *Flow) Done() <-chan struct{} { return fl.s.done }

// FlowStats is a snapshot of one flow's counters. Packet and byte totals,
// SRTT and UnackedRecs are as last published: at most 10 ms old while the
// flow runs, exact once Done is closed or the flow has left its shard.
type FlowStats struct {
	SentPkts   int64
	SentBytes  int64
	AckedPkts  int64
	AckedBytes int64
	LostPkts   int64
	LostBytes  int64
	SRTT       float64

	ProbesSent    int64 // keep-alive probes emitted during outages
	WatchdogTrips int64 // stall-watchdog activations
	Recoveries    int64 // outages ended by a delivered ack
	InOutage      bool  // watchdog currently tripped
	// UnackedRecs is the size of the flow's record book (probes
	// included); zero means nothing is outstanding.
	UnackedRecs int
}

// RTTSamples returns a copy of the per-ack RTT samples recorded so
// far (seconds); always empty unless the flow was added with
// RecordRTT. Safe to call while the flow runs.
func (fl *Flow) RTTSamples() []float64 {
	fl.s.rttMu.Lock()
	defer fl.s.rttMu.Unlock()
	return append([]float64(nil), fl.s.rttSamples...)
}

// Stats snapshots the flow's counters (safe while the flow runs).
func (fl *Flow) Stats() FlowStats {
	return FlowStats{
		SentPkts: fl.s.sentPkts.Load(), SentBytes: fl.s.sentBytes.Load(),
		AckedPkts: fl.s.ackedPkts.Load(), AckedBytes: fl.s.ackedBytes.Load(),
		LostPkts: fl.s.lostPkts.Load(), LostBytes: fl.s.lostBytes.Load(),
		SRTT:       float64(fl.s.srttNanos.Load()) / 1e9,
		ProbesSent: fl.s.probes.Load(), WatchdogTrips: fl.s.wdTrips.Load(),
		Recoveries: fl.s.wdRecovs.Load(), InOutage: fl.s.outage.Load(),
		UnackedRecs: int(fl.s.unackedLen.Load()),
	}
}

// Stats aggregates every shard's counters.
type Stats struct {
	RxPkts         int64 // valid datagrams dispatched to flows
	RxBatches      int64
	RxDups         int64
	TxPkts         int64
	TxBatches      int64
	BadPkts        int64
	BadAcks        int64
	StraySegs      int64 // segment responses matching no fetch flow
	Evicted        int64
	Rebinds        int64 // (addr,flowID) collisions reset as new flows
	Delivered      int64 // distinct data packets received
	DeliveredBytes int64
	FetchReqs      int64 // fetch requests handed to Config.OnFetch
	SegsTx         int64 // segment responses sent back
	Flows          int

	// Overload surface: per-class admission/degradation counters plus
	// the worst shard's brownout state and pressure. The invariant the
	// shed ordering promises — and the overload gate asserts — is that
	// ShedPrimary stays 0 while any scavenger exists to shed.
	AdmittedPrimary   int64 // AddFlow successes per class
	AdmittedScavenger int64
	RejectedPrimary   int64          // primary AddFlow refusals (hard cap only)
	RejectedScavenger int64          // scavenger refusals: local AddFlow + remote BUSY
	ShedPrimary       int64          // primary recv flows evicted at the table cap
	ShedScavenger     int64          // scavenger flows paused, evicted, or shed
	BusyTx            int64          // BUSY frames sent (refusals + sheds)
	BusyRx            int64          // BUSY frames received (we were pushed back)
	TxSoftErrs        int64          // ENOBUFS/ENOMEM-class tx flush errors
	Paused            int64          // local scavenger senders currently paused
	Overload          overload.State // worst shard's current state
	WorstOverload     overload.State // worst state any shard ever entered
	Pressure          float64
}

// Engine runs wire flows on a fixed set of shard event loops. Create
// with New (UDP sockets, real time) or SimNet.NewEngine (an in-memory
// network in virtual time), Start it, add flows, Stop when done.
type Engine struct {
	cfg     Config
	shards  []*shard
	nextID  atomic.Uint32
	rr      atomic.Uint32
	senders atomic.Int64 // admitted local flows (senders, fetches), for the admission cap
	done    chan struct{}
	// draining stops every sender flow from emitting new data (Drain).
	draining atomic.Bool

	// Per-class admission accounting (AddFlow runs on caller
	// goroutines, so these live on the engine, not a shard).
	admitPrim  atomic.Int64
	admitScav  atomic.Int64
	rejectPrim atomic.Int64
	rejectScav atomic.Int64

	started  bool
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New opens one socket per shard and builds the engine.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	ip := net.ParseIP(cfg.ListenIP)
	if ip == nil {
		return nil, fmt.Errorf("engine: bad listen IP %q", cfg.ListenIP)
	}
	e := &Engine{cfg: cfg, done: make(chan struct{})}
	clk := wire.NewClock()
	for i := 0; i < cfg.Shards; i++ {
		port := 0
		if cfg.ListenPort != 0 {
			port = cfg.ListenPort + i
		}
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: ip, Port: port})
		if err != nil {
			e.Stop()
			return nil, err
		}
		sh := newShard(e, i)
		sh.attach(newUDPPort(sh, conn, clk), conn.LocalAddr().(*net.UDPAddr).AddrPort())
		e.shards = append(e.shards, sh)
	}
	return e, nil
}

// Start launches the shard loops.
func (e *Engine) Start() error {
	if e.started {
		return errors.New("engine: already started")
	}
	e.started = true
	for _, sh := range e.shards {
		sh.port.run()
	}
	return nil
}

// Stop terminates every shard loop and closes the ports. Safe to call
// more than once.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() {
		close(e.done)
		for _, sh := range e.shards {
			sh.port.close()
		}
	})
	e.wg.Wait()
}

// Drain stops every sender flow from offering new data; packets
// already in flight keep resolving (acked, or aged out by RTO), which
// Flow.Stats().UnackedRecs reaching zero reports. There is no resume:
// it is the first half of a graceful shutdown, Stop the second.
func (e *Engine) Drain() { e.draining.Store(true) }

// Reset discards every receiver flow's state without a final ack,
// modeling a receiver-process restart: senders see their cumulative
// acks regress to zero and must cope (the chaos peer-restart fault
// drives this). Applied by each shard on its next loop pass.
func (e *Engine) Reset() {
	for _, sh := range e.shards {
		sh.admitMu.Lock()
		sh.resetReq = true
		sh.admitMu.Unlock()
	}
}

// Addrs returns each shard's listening address. Flows land on the
// shard whose socket receives their packets, so a peer engine spreads
// its flows across these.
func (e *Engine) Addrs() []netip.AddrPort {
	out := make([]netip.AddrPort, len(e.shards))
	for i, sh := range e.shards {
		out[i] = sh.local
	}
	return out
}

// AddFlow admits one sender flow, assigning it a unique nonzero flow
// ID and a shard (round-robin). The shard is woken if it is parked in
// its read, and the flow's first train leaves in the pass that admits
// it.
func (e *Engine) AddFlow(fc FlowConfig) (*Flow, error) {
	if !e.started {
		return nil, errors.New("engine: AddFlow before Start")
	}
	if fc.CC == nil {
		return nil, errors.New("engine: flow needs a controller")
	}
	if !fc.Dst.IsValid() {
		return nil, errors.New("engine: flow needs a destination")
	}
	if fc.PacketSize <= 0 {
		fc.PacketSize = netem.MTU
	}
	if fc.PacketSize < wire.DataHeaderLenV2 {
		return nil, errors.New("engine: packet size below header size")
	}
	if fc.PacketSize > e.cfg.MaxPacket {
		return nil, fmt.Errorf("engine: packet size %d exceeds MaxPacket %d",
			fc.PacketSize, e.cfg.MaxPacket)
	}
	if fc.Burst <= 0 {
		fc.Burst = transport.DefaultBurst
	}
	sh := e.shards[int(e.rr.Add(1)-1)%len(e.shards)] // round-robin
	if err := e.admitLocal(sh, fc.Class); err != nil {
		return nil, err
	}
	id := e.nextID.Add(1)
	if fc.Class == overload.ClassScavenger {
		// The class rides the top bit of the wire flow ID, so the
		// receiving engine sheds class-aware without extra header bytes.
		id |= wire.FlowClassScavenger
	}
	s := newSenderFlow(fc)
	f := &flow{addr: netip.AddrPortFrom(fc.Dst.Addr().Unmap(), fc.Dst.Port()), id: id, snd: s}
	sh.enqueue(f)
	return &Flow{id: id, s: s}, nil
}

// admitLocal is admission control for AddFlow and AddFetch, run before
// the flow touches its shard: a rejected flow must cost nothing.
// Scavenger admission is gated on that shard's brownout state; the slot
// taken under the cap is dropFlow's to free.
func (e *Engine) admitLocal(sh *shard, class overload.Class) error {
	if class == overload.ClassScavenger {
		if st := sh.overloadState(); !st.AdmitScavenger() {
			e.rejectScav.Add(1)
			return fmt.Errorf("engine: shard %d %s: scavenger admission refused", sh.idx, st)
		}
	}
	flowCap := int64(e.cfg.Shards) * int64(e.cfg.MaxFlowsPerShard)
	if e.senders.Add(1) > flowCap {
		e.senders.Add(-1)
		if class == overload.ClassScavenger {
			e.rejectScav.Add(1)
		} else {
			e.rejectPrim.Add(1)
		}
		return fmt.Errorf("engine: flow cap %d reached", flowCap)
	}
	if class == overload.ClassScavenger {
		e.admitScav.Add(1)
	} else {
		e.admitPrim.Add(1)
	}
	return nil
}

// severityState maps a stored worst-severity rank back to the state
// that rank represents (the inverse of overload.State.Severity).
func severityState(sev uint32) overload.State {
	switch sev {
	case 1:
		return overload.StateRecover
	case 2:
		return overload.StateBrownout
	case 3:
		return overload.StateShed
	}
	return overload.StateNormal
}

// Stats aggregates all shards.
func (e *Engine) Stats() Stats {
	st := Stats{
		AdmittedPrimary:   e.admitPrim.Load(),
		AdmittedScavenger: e.admitScav.Load(),
		RejectedPrimary:   e.rejectPrim.Load(),
		RejectedScavenger: e.rejectScav.Load(),
	}
	for _, sh := range e.shards {
		st.RxPkts += sh.ctr.rxPkts.Load()
		st.RxBatches += sh.ctr.rxBatches.Load()
		st.RxDups += sh.ctr.rxDups.Load()
		st.TxPkts += sh.ctr.txPkts.Load()
		st.TxBatches += sh.ctr.txBatches.Load()
		st.BadPkts += sh.ctr.bad.Load()
		st.BadAcks += sh.ctr.badAcks.Load()
		st.StraySegs += sh.ctr.straySegs.Load()
		st.Evicted += sh.ctr.evicted.Load()
		st.Rebinds += sh.ctr.rebinds.Load()
		st.Delivered += sh.ctr.delivered.Load()
		st.DeliveredBytes += sh.ctr.deliveredBytes.Load()
		st.FetchReqs += sh.ctr.fetchReqs.Load()
		st.SegsTx += sh.ctr.segsTx.Load()
		st.Flows += int(sh.nFlows.Load())
		st.RejectedScavenger += sh.ctr.rejectScav.Load()
		st.ShedPrimary += sh.ctr.shedPrim.Load()
		st.ShedScavenger += sh.ctr.shedScav.Load()
		st.BusyTx += sh.ctr.busyTx.Load()
		st.BusyRx += sh.ctr.busyRx.Load()
		st.TxSoftErrs += sh.ctr.txSoftErrs.Load()
		st.Paused += sh.ctr.paused.Load()
		if s := sh.overloadState(); s.Severity() > st.Overload.Severity() {
			st.Overload = s
		}
		if w := severityState(sh.ovWorst.Load()); w.Severity() > st.WorstOverload.Severity() {
			st.WorstOverload = w
		}
		if p := sh.pressureMirror(); p > st.Pressure {
			st.Pressure = p
		}
	}
	return st
}
