package engine

import (
	"sync"
	"testing"
	"time"

	"pccproteus/internal/transport"
)

func TestLoopbackSmoke(t *testing.T) {
	const (
		flows = 32
		limit = 8 << 10
	)
	res, err := RunLoopback(LoopbackConfig{
		Flows:      flows,
		RecvShards: 2,
		PacketSize: 512,
		LimitBytes: limit,
		Duration:   20 * time.Second,
		Controller: func(i int) transport.Controller {
			return &FixedRateCC{Rate: 256 << 10}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != flows {
		t.Fatalf("completed %d/%d flows in %v (sender=%+v recv=%+v)",
			res.Completed, flows, res.Elapsed, res.Sender, res.Recv)
	}
	// Every payload byte was delivered (retransmits may add more
	// packets, but delivered distinct bytes ≥ payload per flow).
	minPayload := int64(flows) * limit
	if res.Recv.DeliveredBytes < minPayload {
		t.Fatalf("delivered %d bytes want ≥ %d", res.Recv.DeliveredBytes, minPayload)
	}
	if res.Recv.RxBatches == 0 || res.Sender.TxBatches == 0 {
		t.Fatalf("batch counters stuck: recv=%+v sender=%+v", res.Recv, res.Sender)
	}
	for _, fl := range res.Flows {
		st := fl.Stats()
		if st.AckedBytes < limit {
			t.Fatalf("flow %d acked %d/%d bytes", fl.ID(), st.AckedBytes, limit)
		}
	}
}

func TestLoopbackStreaming(t *testing.T) {
	// Unbounded flows stream until the deadline and never "complete".
	res, err := RunLoopback(LoopbackConfig{
		Flows:      4,
		PacketSize: 512,
		Duration:   300 * time.Millisecond,
		Controller: func(i int) transport.Controller {
			return &FixedRateCC{Rate: 128 << 10}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatalf("streaming flows reported complete: %d", res.Completed)
	}
	if res.Recv.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", res.Recv)
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
