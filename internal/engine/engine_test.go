package engine

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"pccproteus/internal/overload"
	"pccproteus/internal/transport"
)

// loopbackFlows starts one flow per controller from cc on a real-socket
// Loopback's client engine, each dialling the server's shards in turn
// with no path between, waits up to d for them all to complete, and
// stops the engines: it returns the flows, how many completed, and the
// client's and the server's counters.
func loopbackFlows(t *testing.T, client, server Config, fc FlowConfig, cc []transport.Controller, d time.Duration) (flows []*Flow, completed int, snd, recv Stats) {
	t.Helper()
	lb, err := NewLoopback(nil, client, server)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Stop()
	cli, srv := lb.clients[0], lb.Server.Addrs()
	for i := range cc {
		fc.Dst, fc.CC = srv[i%len(srv)], cc[i]
		fl, err := cli.AddFlow(fc)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, fl)
	}
	deadline := time.NewTimer(d)
	defer deadline.Stop()
wait:
	for _, fl := range flows {
		select {
		case <-fl.Done():
		case <-deadline.C:
			break wait
		}
	}
	lb.Stop()
	for _, fl := range flows {
		select {
		case <-fl.Done():
			completed++
		default:
		}
	}
	return flows, completed, cli.Stats(), lb.Server.Stats()
}

// fixedRates returns n fixed-rate controllers at rate bytes/s.
func fixedRates(n int, rate float64) []transport.Controller {
	cc := make([]transport.Controller, n)
	for i := range cc {
		cc[i] = &FixedRateCC{Rate: rate}
	}
	return cc
}

func TestLoopbackSmoke(t *testing.T) {
	const (
		flows = 32
		limit = 8 << 10
	)
	fls, completed, snd, recv := loopbackFlows(t, Config{}, Config{Shards: 2},
		FlowConfig{PacketSize: 512, Limit: limit}, fixedRates(flows, 256<<10), 20*time.Second)
	if completed != flows {
		t.Fatalf("completed %d/%d flows (sender=%+v recv=%+v)", completed, flows, snd, recv)
	}
	// Every payload byte was delivered (retransmits may add more
	// packets, but delivered distinct bytes ≥ payload per flow).
	minPayload := int64(flows) * limit
	if recv.DeliveredBytes < minPayload {
		t.Fatalf("delivered %d bytes want ≥ %d", recv.DeliveredBytes, minPayload)
	}
	if recv.RxBatches == 0 || snd.TxBatches == 0 {
		t.Fatalf("batch counters stuck: recv=%+v sender=%+v", recv, snd)
	}
	for _, fl := range fls {
		st := fl.Stats()
		if st.AckedBytes < limit {
			t.Fatalf("flow %d acked %d/%d bytes", fl.ID(), st.AckedBytes, limit)
		}
	}
}

func TestLoopbackStreaming(t *testing.T) {
	// Unbounded flows stream until the deadline and never "complete".
	_, completed, _, recv := loopbackFlows(t, Config{}, Config{},
		FlowConfig{PacketSize: 512}, fixedRates(4, 128<<10), 300*time.Millisecond)
	if completed != 0 {
		t.Fatalf("streaming flows reported complete: %d", completed)
	}
	if recv.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", recv)
	}
}

func TestAddFlowValidation(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if _, err := e.AddFlow(FlowConfig{}); err == nil {
		t.Fatal("AddFlow before Start must fail")
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	dst := e.Addrs()[0]
	if _, err := e.AddFlow(FlowConfig{Dst: dst}); err == nil {
		t.Fatal("AddFlow without controller must fail")
	}
	if _, err := e.AddFlow(FlowConfig{CC: &FixedRateCC{Rate: 1}}); err == nil {
		t.Fatal("AddFlow without destination must fail")
	}
	if _, err := e.AddFlow(FlowConfig{Dst: dst, CC: &FixedRateCC{Rate: 1}, PacketSize: 1 << 20}); err == nil {
		t.Fatal("oversized PacketSize must fail")
	}
	fl, err := e.AddFlow(FlowConfig{Dst: dst, CC: &FixedRateCC{Rate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if fl.ID() == 0 {
		t.Fatal("flow ID must be nonzero (the allocator starts at 1)")
	}
}

// The per-packet counters are counted in loop-owned fields and stored
// into the atomics once per pump/onAck; onAck stores before it closes
// Done, so a reader woken by Done sees the finished transfer exactly.
func TestStatsExactAfterDone(t *testing.T) {
	rx, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Stop()
	tx, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Stop()
	if err := rx.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Start(); err != nil {
		t.Fatal(err)
	}
	const (
		workers, perWorker = 40, 25 // 1000 flows
		pktSize, limit     = 400, 3 * 400
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				fl, err := tx.AddFlow(FlowConfig{
					Dst: rx.Addrs()[0], CC: &FixedRateCC{Rate: 10e6},
					Limit: limit, PacketSize: pktSize,
				})
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case <-fl.Done():
				case <-time.After(20 * time.Second):
					t.Errorf("flow %d never completed: %+v", fl.ID(), fl.Stats())
					return
				}
				if st := fl.Stats(); st.AckedBytes != limit || st.AckedPkts != limit/pktSize ||
					st.SentBytes < limit || st.SentPkts < st.AckedPkts {
					t.Errorf("flow %d after Done: %+v, want exactly %d bytes acked", fl.ID(), st, limit)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Stats.add folds every field: each field of one snapshot gets its own
// nonzero value, and after folding it into another, counters and gauges
// hold the sum and the overload states, pressure and RxSlotsPeak the
// worse of the two. A field added to Stats but not to add fails here.
func TestStatsAddFoldsEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	worst := map[string]bool{"Overload": true, "WorstOverload": true, "Pressure": true, "RxSlotsPeak": true}
	for i := 0; i < va.NumField(); i++ {
		name, fa, fb := va.Type().Field(i).Name, va.Field(i), vb.Field(i)
		switch k := fa.Kind(); {
		case name == "Pressure":
			fa.SetFloat(0.25)
			fb.SetFloat(0.75)
		case k == reflect.Int || k == reflect.Int64: // b's is the larger
			fa.SetInt(int64(100 + i))
			fb.SetInt(int64(1000 * (i + 1)))
		case worst[name]:
			fa.SetUint(uint64(overload.StateRecover))
			fb.SetUint(uint64(overload.StateShed))
		default:
			t.Fatalf("Stats.%s (%s) is neither a counter nor an overload state", name, k)
		}
	}
	for _, pair := range [][2]Stats{{a, b}, {b, a}} {
		got := pair[0]
		got.add(pair[1])
		vg := reflect.ValueOf(got)
		for i := 0; i < vg.NumField(); i++ {
			name := vg.Type().Field(i).Name
			f, fa, fb := vg.Field(i), va.Field(i), vb.Field(i)
			if worst[name] {
				if !f.Equal(fb) {
					t.Errorf("Stats.%s folds to %v, want the worse %v", name, f, fb)
				}
			} else if f.Int() != fa.Int()+fb.Int() {
				t.Errorf("Stats.%s folds to %d, want %d + %d", name, f.Int(), fa.Int(), fb.Int())
			}
		}
	}
}

// TestStatsWorkCounts: a scripted run on a memPort shard of BatchSize 8
// counts every pass that reads, the ones that read nothing, and the most
// slots one read filled.
func TestStatsWorkCounts(t *testing.T) {
	sh := newTestShard(t, Config{BatchSize: 8})
	sh.wh.init(sh.clock.Now())
	p := sh.port.(*memPort)
	junk := func(n int) {
		for i := 0; i < n; i++ {
			p.push(src(9000), []byte{'x'}) // no packet type: dispatch counts it bad
		}
	}
	sh.pass() // reads nothing
	junk(3)
	sh.pass() // reads 3
	junk(20)
	for i := 0; i < 4; i++ {
		sh.pass() // reads 8, 8, 4, then nothing
	}
	want := Stats{Passes: 6, EmptyPasses: 2, RxSlotsPeak: 8, RxBatches: 4, BadPkts: 23}
	got := Stats{Passes: sh.st.Passes, EmptyPasses: sh.st.EmptyPasses, RxSlotsPeak: sh.st.RxSlotsPeak,
		RxBatches: sh.st.RxBatches, BadPkts: sh.st.BadPkts}
	if got != want {
		t.Fatalf("work counts %+v, want %+v", got, want)
	}
}
