package exp

import (
	"os"
	"strings"
	"testing"
)

// The Appendix F acceptance property: a Proteus-S bulk fetch yields —
// the DASH/web foreground stays within 10% of its fetch-free baseline —
// while the identical fetch under Proteus-P claims a primary's share of
// the leftover capacity (several times the scavenger's take). It holds
// over three trials: a single one reads P/S as low as 2.
//
// The same run is results/figfetch.txt: its first line is the command,
// the rest exactly what that command prints.
func TestFetchYieldScavengerProperty(t *testing.T) {
	res := FetchYield(Options{Fast: true, Trials: 3, Seed: 1})
	want, err := os.ReadFile("../../results/figfetch.txt")
	if err != nil {
		t.Fatal(err)
	}
	cmd, body, _ := strings.Cut(string(want), "\n")
	if cmd != "# go run ./cmd/proteusbench -fig fetch -fast -trials 3 -seed 1" {
		t.Fatalf("first line %q is not the command", cmd)
	}
	if got := (Block{Table: FetchYieldTable(res)}).Render(); got != body {
		t.Errorf("-fig fetch -fast -trials 3 -seed 1 prints\n%s\nresults/figfetch.txt has\n%s", got, body)
	}

	byBg := map[string]FetchYieldResult{}
	for _, r := range res {
		byBg[r.Background] = r
	}
	base, ok1 := byBg["none"]
	scav, ok2 := byBg[ProtoProteusS]
	prim, ok3 := byBg[ProtoProteusP]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing variants: %+v", res)
	}

	// Scavenger yield: foreground within 10% of the fetch-free baseline.
	if scav.DashMbps < 0.9*base.DashMbps {
		t.Errorf("proteus-s fetch degraded DASH: %.2f vs baseline %.2f Mbps",
			scav.DashMbps, base.DashMbps)
	}
	if scav.WebP95 > 1.3*base.WebP95 {
		t.Errorf("proteus-s fetch degraded web p95 PLT: %.2fs vs baseline %.2fs",
			scav.WebP95, base.WebP95)
	}
	if scav.FetchMbps <= 0 {
		t.Errorf("proteus-s fetch made no progress")
	}

	// Primary claim: the same fetch under Proteus-P takes several times
	// the scavenger's share.
	if prim.FetchMbps < 3*scav.FetchMbps {
		t.Errorf("proteus-p fetch claimed %.2f Mbps, not a primary share vs scavenger %.2f",
			prim.FetchMbps, scav.FetchMbps)
	}
	// The floor is ≈ 40 % of the full-size figure's Proteus-P goodput:
	// 2 Mbps of 4.8 when a simulator-only driver ran the fetch, 0.8 of
	// 2.05 now that the fetch is an engine fetch flow whose trains leave
	// on their pacing stamps.
	if prim.FetchMbps < 0.8 {
		t.Errorf("proteus-p fetch goodput %.2f Mbps below any plausible claimed share", prim.FetchMbps)
	}
	if base.FetchMbps != 0 {
		t.Errorf("baseline reports fetch goodput %.2f", base.FetchMbps)
	}
}
