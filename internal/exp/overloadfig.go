package exp

import (
	"pccproteus/internal/engine"
	"pccproteus/internal/overload"
)

// OverloadFig runs the engine-datapath degradation scenarios — a 4×
// scavenger flow flood and an ack-starved slow-receiver phase — on an
// engine.SimNet, in virtual time, and tabulates graceful-degradation
// metrics: primary goodput before / during / after the load, the
// retention ratio under load, time to recover once the load is removed,
// and the class-aware shed/reject/BUSY counters that show the brownout
// machinery spent the pressure on scavengers, not primaries.
func OverloadFig(o Options) (*Table, error) {
	scenarios := []struct {
		name string
		cfg  engine.OverloadConfig
	}{
		{
			// 6 primaries on a 24-slot receiver, hit by 24 scavengers: a
			// 4× flood. The fifteenth scavenger admitted takes the table
			// to Brownout; the rest are refused until the flood has gone
			// and its flows have idled out.
			name: "flood-4x",
			cfg: engine.OverloadConfig{
				PrimaryFlows: 6,
				RecvFlowCap:  24,
				Plan: overload.Plan{Phases: []overload.Phase{
					{Kind: overload.KindFlood, At: 0, Flows: 24, Dur: 2},
				}},
				Overload: overload.Config{RecoverHold: 0.4},
				Seed:     o.seedFor(1),
			},
		},
		{
			// A mute endpoint starves a mixed population: the starved
			// flows fill their own engine's table until it sheds its
			// scavengers and refuses further admissions.
			name: "ack-starve",
			cfg: engine.OverloadConfig{
				PrimaryFlows: 6,
				RecvFlowCap:  16,
				Plan: overload.Plan{Phases: []overload.Phase{
					{Kind: overload.KindAckStarve, At: 0, Flows: 32, Dur: 2},
				}},
				Overload: overload.Config{RecoverHold: 0.4},
				Seed:     o.seedFor(2),
			},
		},
	}

	t := &Table{
		Title:  "Overload: class-aware degradation under flow flood / ack starvation",
		XLabel: "scenario",
		Columns: []string{
			"pre_mbps", "load_mbps", "post_mbps", "retain_pct", "recover_s",
			"shed_scav", "shed_prim", "rej_scav", "busy_tx",
		},
	}
	for _, sc := range scenarios {
		res, err := engine.RunOverload(sc.cfg)
		if err != nil {
			return nil, err
		}
		retain := 0.0
		if res.PreGoodput > 0 {
			retain = 100 * res.LoadGoodput / res.PreGoodput
		}
		// The load engines feel ack-starve pressure themselves; fold
		// their counters in with the receiver's so each scenario's row
		// reports everything the brownout machinery did.
		shedScav := res.Recv.ShedScavenger + res.Load.ShedScavenger
		shedPrim := res.Recv.ShedPrimary + res.Load.ShedPrimary
		rejScav := res.Recv.RejectedScavenger + res.Load.RejectedScavenger
		busyTx := res.Recv.BusyTx + res.Load.BusyTx
		t.Rows = append(t.Rows, TableRow{
			XName: sc.name,
			Cells: []float64{
				res.PreGoodput * 8 / 1e6,
				res.LoadGoodput * 8 / 1e6,
				res.PostGoodput * 8 / 1e6,
				retain,
				res.RecoverySecs,
				float64(shedScav),
				float64(shedPrim),
				float64(rejScav),
				float64(busyTx),
			},
		})
	}
	return t, nil
}
