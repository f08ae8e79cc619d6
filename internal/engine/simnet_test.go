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
	lb, err := NewSimLoopback(s, &netem.Path{Link: netem.NewLink(s, mbps, 150000, oneWay), AckDelay: oneWay}, cc)
	if err != nil {
		t.Fatal(err)
	}
	res := lb.Run(3, 1)
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

	got := lb.Flow.RTTSamples()
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
	if res.Flow.LostPkts != 0 || res.Link.Dropped != 0 || math.Abs(res.Mbps-mbps/2) > 0.05 {
		t.Fatalf("uncongested path: %.3f Mbps, %d lost, %d tail drops", res.Mbps, res.Flow.LostPkts, res.Link.Dropped)
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
	for i, class := range []overload.Class{overload.ClassPrimary, overload.ClassScavenger, overload.ClassScavenger} {
		var err error
		fl[i], err = se.AddFlow(FlowConfig{Dst: re.Addrs()[0], CC: &FixedRateCC{Rate: 8e6 / 8}, Class: class})
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
	build := func(s *sim.Sim) *netem.Path {
		link := netem.NewLink(s, 8, 15000, 0.020) // 10 Mbps offered: a standing queue, tail drops
		link.LossProb = 0.02
		return &netem.Path{Link: link, AckDelay: 0.020}
	}

	s := sim.New(7)
	simPath := build(s)
	chaos.ApplySim(s, simPath.Link, simPath, plan, dur)
	snd := transport.NewSender(1, simPath, fixedrate.New(10))
	snd.Burst = 1
	snd.Start()
	s.Run(dur)

	s = sim.New(7)
	lb, err := NewSimLoopback(s, build(s), fixedrate.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.Install(nil, &plan, dur); err != nil {
		t.Fatal(err)
	}
	s.Run(dur)
	link, path := lb.Path.Link.Stats(), lb.Path.Stats()
	if link != simPath.Link.Stats() || path != simPath.Stats() {
		t.Fatalf("path counters differ:\nengine    %+v %+v\nsimulator %+v %+v", link, path, simPath.Link.Stats(), simPath.Stats())
	}
	if link.Dropped == 0 || link.LostRandom == 0 || link.FaultDrop == 0 || path.AckDropped == 0 {
		t.Fatalf("a category stayed empty: %+v %+v", link, path)
	}

	// Once the path has drained, the engines' own counters close the
	// books: every datagram written was offered to the link, every one it
	// delivered was read, every ack is accounted for.
	lb.Snd.Drain()
	s.Run(dur + 1)
	link, path = lb.Path.Link.Stats(), lb.Path.Stats()
	tx, rx := lb.Snd.Stats(), lb.Recv.Stats()
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
