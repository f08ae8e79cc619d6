package exp

import (
	"os"
	"strings"
	"testing"

	"pccproteus/internal/netem"
)

// TestWireParityWindowGated is the parity table for the controllers a
// window or a delay target holds, which the three Proteus rows never
// are: every row passes, and no engine RTT mean exceeds what the path
// can physically produce — base RTT, a full queue, one MTU of
// serialisation. An engine flow that stamps its packets on a pacing
// timeline the window held back reads RTTs the path cannot have. The
// table must also print the bytes of results/wireparity-gated.txt.
func TestWireParityWindowGated(t *testing.T) {
	want, err := os.ReadFile("../../results/wireparity-gated.txt")
	if err != nil {
		t.Fatal(err)
	}
	cmd, body, _ := strings.Cut(string(want), "\n")
	if cmd != "# go run ./cmd/proteusbench -wire -fast -seed 1 -wire-protos copa,ledbat,ledbat-25,cubic,bbr,bbr2" {
		t.Fatalf("first line %q is not the command", cmd)
	}
	res, err := WireParity(CrossWorldOptions{
		Protos:   []string{ProtoCopa, ProtoLEDBAT, ProtoLEDBAT25, ProtoCubic, ProtoBBR, ProtoBBR2},
		Duration: 8, // -fast
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rate := crossWorldLink.Mbps * 1e6 / 8
	bound := crossWorldLink.RTT + float64(crossWorldLink.BufBytes+netem.MTU)/rate
	for _, row := range res.Rows {
		if row.WireMeanRTT > bound {
			t.Errorf("%s: engine mean RTT %.1f ms above the path's maximum %.1f ms", row.Proto, row.WireMeanRTT*1e3, bound*1e3)
		}
	}
	if !res.AllPass() || t.Failed() {
		t.Fatalf("window-gated parity failed:\n%s", res.Render())
	}
	if got := res.Render(); got != body {
		t.Fatalf("window-gated parity prints\n%s\nresults/wireparity-gated.txt has\n%s", got, body)
	}
}
