package exp

import "testing"

// TestMeanOverRegression pins Fig4 values captured before meanOver moved
// onto the campaign worker pool and seedFor onto wire.MixSeed. The
// refactor promises bit-identical output — OrderedReduce folds trial
// results in trial order and MixSeed is the same mix seedFor inlined —
// so these compare with ==, for both the historical Seed==0 identity
// seeds and a remapped replication.
func TestMeanOverRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial figure run")
	}
	type pin struct {
		loss               float64
		proteusP, cubicVal float64
	}
	cases := []struct {
		seed int64
		pins []pin
	}{
		{0, []pin{
			{0, 46.958, 50},
			{0.01, 40.522499999999994, 4.94125},
			{0.03, 17.566, 2.6635},
			{0.05, 13.02725, 2.07575},
		}},
		{99, []pin{
			{0, 46.96875, 50},
			{0.01, 45.3845, 4.7465},
			{0.03, 14.869, 2.6615},
			{0.05, 6.8225, 1.93225},
		}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			o := Options{Fast: true, Trials: 2, Duration: 30, Seed: c.seed, Workers: workers}
			tab := Fig4(o, 4, []string{ProtoProteusP, ProtoCubic})
			if len(tab.Rows) != len(c.pins) {
				t.Fatalf("seed=%d: %d rows, want %d", c.seed, len(tab.Rows), len(c.pins))
			}
			for i, p := range c.pins {
				r := tab.Rows[i]
				if r.X != p.loss || r.Cells[0] != p.proteusP || r.Cells[1] != p.cubicVal {
					t.Fatalf("seed=%d workers=%d loss=%g: got %v/%v, want %v/%v",
						c.seed, workers, r.X, r.Cells[0], r.Cells[1], p.proteusP, p.cubicVal)
				}
			}
		}
	}
}
