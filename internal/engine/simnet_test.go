package engine

import (
	"math"
	"runtime"
	"testing"

	"pccproteus/internal/cc/fixedrate"
	"pccproteus/internal/chaos"
	"pccproteus/internal/netem"
	"pccproteus/internal/overload"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// The virtual network as a contract: what an engine on a SimNet measures
// is the netem path and the engine's own scheduling, nothing else, and it
// measures the same thing every time.

// stampSpy is a fixed-rate controller that logs what is needed to say
// what every RTT sample should read. OnSend sees each packet's stamp and
// its emission time; the OnAck calls of one ack share its echoed arrival
// stamp, and the last of them — the newest packet, on an in-order path —
// is the packet the sample was taken from.
type stampSpy struct {
	FixedRateCC
	stamp, emitted []float64 // per sequence number
	cur            transport.Ack
	sampled        []transport.Ack
}

func (c *stampSpy) OnSend(now float64, p *transport.SentPacket) {
	c.stamp, c.emitted = append(c.stamp, p.SentAt), append(c.emitted, now)
}

func (c *stampSpy) OnAck(a transport.Ack) {
	if a.RecvAt != c.cur.RecvAt {
		c.flush()
	}
	c.cur = a
}

func (c *stampSpy) flush() {
	if c.cur.RTT != 0 {
		c.sampled = append(c.sampled, c.cur)
	}
}

// simFlow starts cc's flow on a SimNet Loopback on s, across a path
// shaped by cfg.
func simFlow(t *testing.T, s *sim.Sim, cfg wire.ShimConfig, cc transport.Controller) (*Loopback, *Flow, *netem.Path) {
	t.Helper()
	lb, err := NewLoopback(s, Config{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fl, path, err := lb.StartFlow(cfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	return lb, fl, path
}

// Every RTT sample of a fixed-rate flow at half the link rate is the
// path's 40 ms plus the packet's own serialisation — and, since the
// engine measures from the stamp while the wheel fires a train a slot
// late, whatever the train's first packet left late and held up the next
// by. A single-server queue fed the logged stamps and emission times
// says what that is for each packet; to the nanosecond the wire format
// carries, there is nothing else in a sample.
func TestSimNetRTTSamplesReadThePath(t *testing.T) {
	const mbps, oneWay = 20.0, 0.020
	s := sim.New(1)
	cc := &stampSpy{FixedRateCC: FixedRateCC{Rate: mbps / 2 * 1e6 / 8}}
	lb, fl, path := simFlow(t, s, wire.ShimConfig{RateMbps: mbps, QueueBytes: 150000, Delay: oneWay, AckDelay: oneWay}, cc)
	res := lb.Measure(fl, 3, 1)
	lb.Stop()
	cc.flush()

	// The oracle: a packet enters the link at its stamp, or when it was
	// emitted if that was later, and waits for the one before it.
	const ser = netem.MTU / (mbps * 1e6 / 8)
	want := make([]float64, len(cc.stamp))
	busy, late, exact := 0.0, 0, 0
	for seq, stamp := range cc.stamp {
		busy = max(stamp, cc.emitted[seq], busy) + ser
		want[seq] = busy + oneWay - stamp + oneWay
		if cc.emitted[seq] > stamp {
			late++
			if l := cc.emitted[seq] - stamp; l > 2*wheelGran {
				t.Fatalf("packet %d left %.6f s after its stamp, over two wheel slots", seq, l)
			}
		}
	}

	got := fl.RTTSamples()
	if len(got) < 900 || len(got) != len(cc.sampled) {
		t.Fatalf("%d RTT samples, the controller saw %d acks", len(got), len(cc.sampled))
	}
	for i, a := range cc.sampled {
		if got[i] != a.RTT {
			t.Fatalf("sample %d: recorded %.9f, the controller was told %.9f", i, got[i], a.RTT)
		}
		if d := a.RTT - want[a.Seq]; math.Abs(d) > 2.5e-9 {
			t.Fatalf("sample %d, packet %d, reads %.9f s; the path makes it %.9f", i, a.Seq, a.RTT, want[a.Seq])
		}
		if math.Abs(a.RTT-(2*oneWay+ser)) <= 2.5e-9 {
			exact++
		}
	}
	// Most packets lead the clock and read base RTT + serialisation exactly.
	if late == 0 || late > len(cc.stamp)/3 || exact < len(got)*2/3 {
		t.Fatalf("%d of %d packets left late, %d of %d samples read the bare path", late, len(cc.stamp), exact, len(got))
	}
	if res.Flow.LostPkts != 0 || path.Link.Stats().Dropped != 0 || math.Abs(res.Mbps-mbps/2) > 0.05 {
		t.Fatalf("uncongested path: %.3f Mbps, %d lost, %d tail drops", res.Mbps, res.Flow.LostPkts, path.Link.Stats().Dropped)
	}
}

// threeFlows runs one primary and two scavenger flows from one engine to
// one receiver shard with room for two flows, across one bottleneck, for
// four seconds: admission refusals, cap evictions, BUSY back-off and the
// brownout machine all take part.
func threeFlows(t *testing.T) (flows [3]FlowStats, snd, recv Stats) {
	t.Helper()
	s := sim.New(3)
	n := NewSimNet(s)
	se, re := n.NewEngine(Config{Seed: 5}), n.NewEngine(Config{MaxFlowsPerShard: 2, Seed: 6})
	n.Connect(se.Addrs()[0], re.Addrs()[0], &netem.Path{Link: netem.NewLink(s, 20, 60000, 0.010), AckDelay: 0.010})
	se.Start()
	re.Start()
	var fl [3]*Flow
	rate := FixedRateCC{Rate: 8e6 / 8} // one primary, then two scavengers
	for i, cc := range []transport.Controller{&rate, &scavFixedRate{rate}, &scavFixedRate{rate}} {
		var err error
		fl[i], err = se.AddFlow(FlowConfig{Dst: re.Addrs()[0], CC: cc})
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Run(4)
	se.Stop()
	re.Stop()
	for i := range fl {
		flows[i] = fl[i].Stats()
	}
	return flows, se.Stats(), re.Stats()
}

// The same scenario gives the same counters, every flow's and both
// engines', however many CPUs the runtime has: a SimNet run is one
// goroutine's work and nothing in it follows map order or the clock.
func TestSimNetRunsRepeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f1, s1, r1 := threeFlows(t)
	runtime.GOMAXPROCS(2)
	f2, s2, r2 := threeFlows(t)
	if f1 != f2 || s1 != s2 || r1 != r2 {
		t.Fatalf("two runs differ:\nflows %+v\n      %+v\nsender %+v\n       %+v\nreceiver %+v\n         %+v", f1, f2, s1, s2, r1, r2)
	}
	// And the scenario is the one meant: the receiver was over its cap, only
	// scavengers paid, the primary kept its rate.
	if r1.ShedScavenger == 0 || r1.BusyTx == 0 || s1.BusyRx == 0 || r1.ShedPrimary != 0 {
		t.Fatalf("receiver %+v: want scavengers shed and pushed back, no primary", r1)
	}
	if mbps := float64(f1[0].AckedBytes) * 8 / 4 / 1e6; mbps < 7.5 {
		t.Fatalf("primary acked %.2f Mbps of its 8 through the scavengers' churn", mbps)
	}
}

// A datagram is a packet to the link: the same fault plan on the same
// bottleneck counts the same tail drops, random losses and blackout
// drops — every LinkStats and PathStats field — under an engine flow as
// under the simulated sender at the same fixed rate. (The blackout stays
// under the watchdog's half second: past it the two senders' survival
// machinery, not the path, decides what is offered.)
func TestSimNetAttributionEqualsSimulator(t *testing.T) {
	const dur = 3.0005 // between two packets of the 1.2 ms grid
	plan := chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.KindBlackout, At: 1, Dur: 0.1}}}
	shape := wire.ShimConfig{RateMbps: 8, QueueBytes: 15000, Delay: 0.020, AckDelay: 0.020, LossProb: 0.02} // 10 Mbps offered: a standing queue, tail drops

	s := sim.New(7)
	simPath, _, err := newPath(s, shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	chaos.ApplySim(s, simPath.Link, simPath, plan, dur)
	snd := transport.NewSender(1, simPath, fixedrate.New(10))
	snd.Burst = 1
	snd.Start()
	s.Run(dur)

	s = sim.New(7)
	lb, _, engPath := simFlow(t, s, shape, fixedrate.New(10))
	defer lb.Stop()
	if err := lb.Install(nil, &plan, dur); err != nil {
		t.Fatal(err)
	}
	s.Run(dur)
	link, path := engPath.Link.Stats(), engPath.Stats()
	if link != simPath.Link.Stats() || path != simPath.Stats() {
		t.Fatalf("path counters differ:\nengine    %+v %+v\nsimulator %+v %+v", link, path, simPath.Link.Stats(), simPath.Stats())
	}
	if link.Dropped == 0 || link.LostRandom == 0 || link.FaultDrop == 0 || path.AckDropped == 0 {
		t.Fatalf("a category stayed empty: %+v %+v", link, path)
	}

	// Once the path has drained, the engines' own counters close the
	// books: every datagram written was offered to the link, every one it
	// delivered was read, every ack is accounted for.
	lb.clients[0].Drain()
	s.Run(dur + 1)
	link, path = engPath.Link.Stats(), engPath.Stats()
	tx, rx := lb.clients[0].Stats(), lb.Server.Stats()
	if offered := link.Enqueued + link.Dropped + link.FaultDrop; tx.TxPkts != offered {
		t.Errorf("sender wrote %d datagrams, the link was offered %d", tx.TxPkts, offered)
	}
	if rx.RxPkts != link.Delivered || rx.BadPkts != 0 {
		t.Errorf("link delivered %d, receiver read %d (%d bad)", link.Delivered, rx.RxPkts, rx.BadPkts)
	}
	if rx.TxPkts != tx.RxPkts+path.AckDropped {
		t.Errorf("receiver wrote %d acks: %d arrived, %d dropped by the blackout", rx.TxPkts, tx.RxPkts, path.AckDropped)
	}
}

// An unroutable datagram is lost, nothing more.
func TestSimNetNoRoute(t *testing.T) {
	s := sim.New(1)
	n := NewSimNet(s)
	e := n.NewEngine(Config{})
	e.Start()
	fl, err := e.AddFlow(FlowConfig{Dst: src(9), CC: &FixedRateCC{Rate: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1)
	e.Stop()
	if st, es := fl.Stats(), e.Stats(); st.SentPkts == 0 || st.AckedPkts != 0 || es.TxPkts == 0 || es.RxPkts != 0 {
		t.Fatalf("flow to nowhere: %+v, engine %+v: want packets written, nothing back", st, es)
	}
}

// The relay path recycles: a pathRoute carrying stamped data and
// segments across the bottleneck and stamped fetch requests back, each
// waiting on its direction's lane, allocates nothing per datagram once
// warm. SimNet and Shim both run these routes.
func TestPathRoutesZeroAlloc(t *testing.T) {
	const ret = 0.010
	s := sim.New(1)
	clk := wire.VirtualClock(s.Now)
	path := &netem.Path{Link: netem.NewLink(s, 100, 1<<20, 0.010), AckDelay: ret}
	var free payloads
	var fwdN, revN int
	route := pathRoute(s, clk, path, 0, &free, func(b []byte) {
		if wire.PacketType(b) == 'F' {
			revN++
		} else {
			fwdN++
		}
	})
	data, req, seg := make([]byte, 1200), make([]byte, wire.FetchLen), make([]byte, wire.SegmentHeaderLen+1000)
	var seq int64
	step := func() { // 1 ms: three datagrams, each departing half a millisecond ahead
		seq++
		stamp := clk.NanosAt(s.Now() + 0.0005)
		route(wire.EncodeData(data, wire.DataHeader{Seq: seq, SentAt: stamp, Flow: 1}, len(data)))
		route(wire.EncodeSegment(seg, wire.SegmentHeader{Nonce: seq, SentAtEcho: clk.NanosAt(s.Now() + 0.0005 - ret),
			ObjID: 1, TotalSegs: 1 << 20, ObjSize: 1 << 30, Seg: seq}, seg[wire.SegmentHeaderLen:]))
		route(wire.EncodeFetch(req, wire.FetchHeader{ObjID: 1, Seg: seq, Nonce: seq, SentAt: stamp}))
		s.Run(s.Now() + 0.001)
	}
	for i := 0; i < 200; i++ {
		step()
	}
	if fwdN < 2*180 || revN < 180 {
		t.Fatalf("%d datagrams forward and %d back after 200 steps", fwdN, revN)
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("three datagrams across the routes allocate %.2f, want 0", allocs)
	}
}

// A warmed one-flow SimNet pair on a clean path, stepped 100 ms of
// virtual time per run, allocates at most once per ten datagrams: the
// relay recycles, each port re-arms one wake timer, and what is left is
// the engine's own, which is nothing per packet.
func TestSimNetZeroAllocs(t *testing.T) {
	s := sim.New(1)
	n := NewSimNet(s)
	se, re := n.NewEngine(Config{}), n.NewEngine(Config{})
	n.Connect(se.Addrs()[0], re.Addrs()[0], &netem.Path{Link: netem.NewLink(s, 20, 150000, 0.020), AckDelay: 0.020})
	se.Start()
	re.Start()
	if _, err := se.AddFlow(FlowConfig{Dst: re.Addrs()[0], CC: &FixedRateCC{Rate: 10e6 / 8}}); err != nil {
		t.Fatal(err)
	}
	s.Run(2)
	const runs = 20
	before := se.Stats().TxPkts + re.Stats().TxPkts
	allocs := testing.AllocsPerRun(runs, func() { s.Run(s.Now() + 0.1) })
	dgrams := float64(se.Stats().TxPkts+re.Stats().TxPkts-before) / (runs + 1)
	if dgrams < 80 || allocs/dgrams > 0.1 {
		t.Fatalf("%.0f datagrams per 100 ms allocate %.1f: %.3f per datagram, want at most 0.1", dgrams, allocs, allocs/dgrams)
	}
}

// A recycled buffer has one owner at a time, under faults too. A
// duplicate crosses the path in a buffer of its own and a tail-dropped
// datagram's buffer comes back, so no buffer is on the free list twice,
// none is on it while a datagram in it is handed over, and every data
// packet reaches the receiver as the packet it was sent as — once, or
// twice with its duplicate.
func TestSimNetRecyclingUnderFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dup   float64
		queue int
	}{{"dup", 1, 150000}, {"taildrop", 0, 4500}} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			n := NewSimNet(s)
			se, re := n.NewEngine(Config{}), n.NewEngine(Config{})
			from, to := se.Addrs()[0], re.Addrs()[0]
			link := netem.NewLink(s, 10, tc.queue, 0.010) // 15 Mbps offered below
			link.DupProb = tc.dup
			path := &netem.Path{Link: link, AckDelay: 0.010}

			// Connect's wiring, with the checks in front of each handover.
			sent, got := map[int64]int{}, map[int64]int{}
			owned := func(b []byte) { // the list's top is what the last handover gave back
				top := len(n.free) - 1
				for i, f := range n.free {
					if &(*f)[0] == &b[0] {
						t.Fatalf("t=%.6f: a datagram is handed over from a buffer on the free list", s.Now())
					}
					if i < top && f == n.free[top] {
						t.Fatalf("t=%.6f: a buffer is on the free list twice", s.Now())
					}
				}
			}
			src, dst := n.ports[from], n.ports[to]
			fwd := pathRoute(s, n.clk, path, 0, &n.free, func(b []byte) {
				owned(b)
				if h, err := wire.DecodeData(b); err != nil || h.Flow != 1 || sent[h.Seq] == 0 {
					t.Fatalf("t=%.6f: delivered %+v (%v), which the flow never sent", s.Now(), h, err)
				} else if got[h.Seq]++; got[h.Seq] > 1+int(tc.dup) {
					t.Fatalf("t=%.6f: packet %d delivered %d times", s.Now(), h.Seq, got[h.Seq])
				}
				dst.push(from, b)
			})
			rev := pathRoute(s, n.clk, path, 0, &n.free, func(b []byte) { owned(b); src.push(to, b) })
			src.send, dst.send = via(src.send, to, func(b []byte) {
				if h, err := wire.DecodeData(b); err == nil {
					sent[h.Seq]++
				}
				fwd(b)
			}), via(dst.send, from, rev)

			se.Start()
			re.Start()
			if _, err := se.AddFlow(FlowConfig{Dst: to, CC: &FixedRateCC{Rate: 15e6 / 8}}); err != nil {
				t.Fatal(err)
			}
			s.Run(1)
			if tc.dup == 0 {
				// Every tail-dropped datagram hands its buffer and packet
				// back, so the drops cost no allocation either.
				if allocs := testing.AllocsPerRun(10, func() { s.Run(s.Now() + 0.1) }); allocs > 10 {
					t.Errorf("100 ms of tail drops allocate %.1f", allocs)
				}
			}
			s.Run(s.Now() + 1)
			se.Drain()
			s.Run(s.Now() + 1)

			ls, rx := link.Stats(), re.Stats()
			if ls.Duplicated != int64(tc.dup)*ls.Enqueued || rx.BadPkts != 0 || rx.RxDups != ls.Duplicated {
				t.Fatalf("link %+v, receiver %+v: want every packet duplicated or none, the receiver's dups the link's, none bad", ls, rx)
			}
			if offered := ls.Enqueued + ls.Dropped; 4*ls.Dropped < offered {
				t.Fatalf("link %+v: a third of what is offered exceeds the link's rate; under a quarter was tail-dropped", ls)
			}
		})
	}
}

// A receiver flow whose sender goes quiet without finishing — an
// unlimited flow whose engine stops — is evicted by the idle sweep on a
// pass that reads nothing, and Stats shows the eviction once the
// simulator stops: a pass publishes its counters whatever it read.
func TestSimNetIdleEvictionPublished(t *testing.T) {
	s := sim.New(1)
	lb, err := NewLoopback(s, Config{}, Config{IdleTimeout: 1})
	if err != nil {
		t.Fatal(err)
	}
	cli, dst, _, err := lb.Path(wire.ShimConfig{RateMbps: 20, Delay: 0.010, AckDelay: 0.010})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.AddFlow(FlowConfig{Dst: dst, CC: &FixedRateCC{Rate: 1e6}, PacketSize: 400}); err != nil {
		t.Fatal(err)
	}
	s.Run(0.5)
	cli.Stop()
	s.Run(0.6) // what was in flight has landed
	if st := lb.Server.Stats(); st.Flows != 1 || st.Evicted != 0 || st.Delivered == 0 {
		t.Fatalf("before the sweep: flows=%d evicted=%d delivered=%d, want 1, 0 and some", st.Flows, st.Evicted, st.Delivered)
	}
	s.Run(3)
	if st := lb.Server.Stats(); st.Flows != 0 || st.Evicted != 1 {
		t.Fatalf("after the sweep: flows=%d evicted=%d, want 0 and 1", st.Flows, st.Evicted)
	}
}

// Flow.Stats is one snapshot taken at one instant of the flow's loop,
// so every read is consistent: nothing is acked or lost that was not
// sent, and no outage ends that did not begin. Read every virtual
// millisecond of a 2 ms path with random loss and tail drops that also
// blacks out for long enough to trip the watchdog.
func TestSimNetFlowStatsConsistent(t *testing.T) {
	s := sim.New(1)
	shape := wire.ShimConfig{RateMbps: 20, QueueBytes: 15000, Delay: 0.001, AckDelay: 0.001, LossProb: 0.02}
	lb, fl, _ := simFlow(t, s, shape, &FixedRateCC{Rate: 3e6}) // 24 Mbps offered
	defer lb.Stop()
	plan := chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.KindBlackout, At: 1, Dur: 1}}}
	const dur = 3.0
	if err := lb.Install(nil, &plan, dur); err != nil {
		t.Fatal(err)
	}
	var st FlowStats
	for ms := 1; ms <= int(dur*1000); ms++ {
		lb.Wait(float64(ms) / 1000)
		st = fl.Stats()
		if st.AckedPkts+st.LostPkts > st.SentPkts || st.AckedBytes > st.SentBytes || st.WatchdogTrips < st.Recoveries {
			t.Fatalf("t=%d ms: inconsistent snapshot %+v", ms, st)
		}
	}
	if st.LostPkts == 0 || st.WatchdogTrips == 0 || st.Recoveries == 0 {
		t.Fatalf("the path's losses and blackout left no trace: %+v", st)
	}
}

// simChurnRun is what simChurn saw: both engines' counters and the
// bottleneck's at the end, and the receiver's when the last flow
// completed.
type simChurnRun struct {
	snd, recv, atLast Stats
	link              netem.LinkStats
	done              int // flows whose Done closed with every byte acked
}

// simChurn runs 8 closed-loop clients on a SimNet, each starting its
// next 30 × 1200 B fixed-rate flow the moment its last one is done, 50
// flows apiece, to a receiver shard capped at 64 flows, across one
// bottleneck of mbps with a queue of queue bytes, until every flow is
// done or 20 s of virtual time have passed, and then for settle seconds
// more.
func simChurn(t *testing.T, mbps float64, queue int, settle float64) simChurnRun {
	t.Helper()
	const clients, perClient, pkts, size = 8, 50, 30, 1200
	s := sim.New(1)
	n := NewSimNet(s)
	se, re := n.NewEngine(Config{Seed: 1}), n.NewEngine(Config{MaxFlowsPerShard: 64, Seed: 2})
	link := netem.NewLink(s, mbps, queue, 0.005)
	n.Connect(se.Addrs()[0], re.Addrs()[0], &netem.Path{Link: link, AckDelay: 0.005})
	se.Start()
	re.Start()
	var (
		run     simChurnRun
		flows   [clients]*Flow
		started [clients]int
	)
	start := func(c int) {
		fl, err := se.AddFlow(FlowConfig{Dst: re.Addrs()[0], CC: &FixedRateCC{Rate: 1e6}, Limit: pkts * size, PacketSize: size})
		if err != nil {
			t.Fatal(err)
		}
		flows[c] = fl
		started[c]++
	}
	for c := range flows {
		start(c)
	}
	for run.done < clients*perClient && s.Now() < 20 {
		s.Run(s.Now() + 0.001)
		for c, fl := range flows {
			if fl == nil {
				continue
			}
			select {
			case <-fl.Done():
			default:
				continue
			}
			if st := fl.Stats(); st.AckedBytes != pkts*size {
				t.Fatalf("client %d, flow %d: done with %d bytes acked, want %d", c, started[c], st.AckedBytes, pkts*size)
			}
			run.done++
			flows[c] = nil
			if started[c] < perClient {
				start(c)
			}
		}
	}
	run.atLast = re.Stats()
	s.Run(s.Now() + settle)
	se.Stop()
	re.Stop()
	run.snd, run.recv, run.link = se.Stats(), re.Stats(), link.Stats()
	return run
}

// A receiver gives a finished transfer's flow back at once. 400 lossless
// flows, 8 at a time, through a 64-flow cap leave the table empty, the
// overload machine in Normal, nothing evicted or shed and no ack the
// sender cannot place; if finished flows waited for the idle sweep,
// they would fill the cap, the receiver would shed, and each eviction's
// final ack would reach a sender that has left.
func TestSimNetChurnReclaimsReceivers(t *testing.T) {
	run := simChurn(t, 100, 150000, 0.1)
	if run.done != 400 {
		t.Fatalf("%d of 400 flows done by t=20", run.done)
	}
	r := run.recv
	if r.Flows != 0 || r.WorstOverload != overload.StateNormal || r.Evicted != 0 || r.ShedPrimary != 0 {
		t.Fatalf("receiver: flows=%d worst=%v evicted=%d shedPrimary=%d, want 0, normal, 0, 0",
			r.Flows, r.WorstOverload, r.Evicted, r.ShedPrimary)
	}
	if run.snd.BadAcks != 0 || r.Delivered != 400*30 || r.RxDups != 0 {
		t.Fatalf("sender badAcks=%d, receiver delivered=%d dups=%d: want 0, 12000, 0", run.snd.BadAcks, r.Delivered, r.RxDups)
	}
}

// Under tail drops every replacement takes a new sequence number, so a
// finished flow keeps its holes: it leaves at the first sweep that finds
// it quiet since the one before, within two sweeps of its last packet,
// and nothing live is evicted for it.
func TestSimNetChurnReclaimsReceiversUnderLoss(t *testing.T) {
	const settle = 2.01 // two sweeps, and the passes they may fall late by
	run := simChurn(t, 40, 6000, settle)
	if run.done != 400 {
		t.Fatalf("%d of 400 flows done by t=20", run.done)
	}
	r := run.recv
	if run.link.Dropped == 0 || run.atLast.Flows == 0 {
		t.Fatalf("%d tail drops, %d receiver flows at the last completion: the path was meant to leave holes",
			run.link.Dropped, run.atLast.Flows)
	}
	// A finished flow is not load: live flows never passed 8 of 64.
	if r.Flows != 0 || r.Evicted != 0 || r.ShedPrimary != 0 || r.WorstOverload != overload.StateNormal {
		t.Fatalf("receiver %.2f s after the last completion: flows=%d evicted=%d shedPrimary=%d worst=%v, want 0, 0, 0, normal",
			settle, r.Flows, r.Evicted, r.ShedPrimary, r.WorstOverload)
	}
}

// A final ack lost on the path strands nobody. The receiver let the flow
// go when it sent that ack; the sender's replacements of what it never
// heard acked take new sequence numbers, re-admit a fresh receiver flow,
// and its SACKs complete the transfer. That flow, all holes, leaves at
// its next quiet sweep.
func TestSimNetLostFinalAckReadmits(t *testing.T) {
	s := sim.New(1)
	n := NewSimNet(s)
	se, re := n.NewEngine(Config{Seed: 1}), n.NewEngine(Config{Seed: 2})
	path := &netem.Path{Link: netem.NewLink(s, 20, 150000, 0.010), AckDelay: 0.010}
	n.Connect(se.Addrs()[0], re.Addrs()[0], path)
	se.Start()
	re.Start()
	fl, err := se.AddFlow(FlowConfig{Dst: re.Addrs()[0], CC: &FixedRateCC{Rate: 1e6}, Limit: 10 * 1200, PacketSize: 1200})
	if err != nil {
		t.Fatal(err)
	}
	until := func(what string, cond func() bool) {
		t.Helper()
		for !cond() {
			if s.Now() > 10 {
				t.Fatalf("t=%.4f: still waiting for %s", s.Now(), what)
			}
			s.Run(s.Now() + 100e-6)
		}
	}
	done := func() bool {
		select {
		case <-fl.Done():
			return true
		default:
			return false
		}
	}
	// The ack path goes dark once 9 of the 10 packets are in and stays
	// dark until the pushed 10th has been answered.
	until("9 packets delivered", func() bool { return re.Stats().Delivered == 9 })
	path.AckDown = true
	until("the pushed packet", func() bool { return re.Stats().Delivered == 10 })
	s.Run(s.Now() + 0.001)
	path.AckDown = false
	if st := re.Stats(); st.Flows != 0 || st.Evicted != 0 || path.Stats().AckDropped == 0 || done() {
		t.Fatalf("after the blackout: receiver flows=%d evicted=%d, %d acks dropped, sender done=%v; want 0, 0, some, false",
			st.Flows, st.Evicted, path.Stats().AckDropped, done())
	}
	until("the sender to complete", done)
	if st, fs := re.Stats(), fl.Stats(); st.Flows != 1 || st.Delivered <= 10 || fs.AckedBytes != 10*1200 || fs.LostPkts == 0 {
		t.Fatalf("at completion: receiver flows=%d delivered=%d, sender %+v; want a re-admitted flow, replacements in, every byte acked",
			st.Flows, st.Delivered, fs)
	}
	s.Run(s.Now() + 2.01) // two sweeps: the first sees the replacement, the second a quiet flow
	se.Stop()
	re.Stop()
	if st, ss := re.Stats(), se.Stats(); st.Flows != 0 || st.Evicted != 0 || ss.BadAcks != 0 {
		t.Fatalf("after two sweeps: receiver flows=%d evicted=%d, sender badAcks=%d; want 0, 0, 0", st.Flows, st.Evicted, ss.BadAcks)
	}
}
