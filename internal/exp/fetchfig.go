package exp

import (
	"pccproteus/internal/dash"
	"pccproteus/internal/engine"
	"pccproteus/internal/fetch"
	"pccproteus/internal/stats"
	"pccproteus/internal/wire"
)

// FetchBackgrounds lists the bulk-fetch variants of the scavenger-yield
// experiment: no background fetch (the foreground baseline), a fetch
// under Proteus-S (should scavenge), and one under Proteus-P (should
// claim a primary's share).
var FetchBackgrounds = []string{"none", ProtoProteusS, ProtoProteusP}

// FetchYieldResult is one background variant's aggregate outcome.
type FetchYieldResult struct {
	Background string
	DashMbps   float64 // mean DASH chunk bitrate across players and trials
	WebP50     float64 // web page-load-time quantiles, seconds
	WebP95     float64
	WebP99     float64
	FetchMbps  float64 // bulk-fetch goodput (0 for the baseline)
}

// pltHist parameterizes the page-load-time sketch: 10 ms to 100 s at
// ~7% relative resolution.
func pltHist() *stats.LogHist { return stats.NewLogHist(0.01, 100, 160) }

// FetchYield runs the scavenger-yield benchmark for the segmented
// bulk-fetch protocol (EXPERIMENTS Appendix F): a residential downlink
// carries three DASH players (CUBIC transport) and Poisson web page
// loads; an endless fetch runs underneath in each background variant, as
// an engine fetch flow on a SimNet over the same bottleneck. A
// well-behaved scavenger fetch leaves the foreground within a few
// percent of the fetch-free baseline while soaking up the leftover
// capacity; the same fetch under Proteus-P claims a primary's share.
func FetchYield(o Options) []FetchYieldResult {
	o = o.withDefaults()
	dur := o.Duration
	var out []FetchYieldResult
	for _, bg := range FetchBackgrounds {
		plts := make([][]float64, o.Trials) // one slot per trial: trials run concurrently
		m := meanOver(o, func(trial int, seed int64) []float64 {
			dashMbps, p, fetchBytes := fetchYieldTrial(seed, bg, dur)
			plts[trial-1] = p
			return []float64{dashMbps, float64(fetchBytes) * 8 / dur / 1e6}
		})
		hist := pltHist()
		for _, trial := range plts {
			for _, p := range trial {
				hist.Add(p)
			}
		}
		out = append(out, FetchYieldResult{
			Background: bg,
			DashMbps:   m[0],
			WebP50:     hist.Quantile(0.50),
			WebP95:     hist.Quantile(0.95),
			WebP99:     hist.Quantile(0.99),
			FetchMbps:  m[1],
		})
	}
	return out
}

// fetchYieldLink is the experiment's downlink: tight enough that three
// top-rung DASH players nearly fill it, so a background flow claiming a
// fair share visibly squeezes the foreground.
func fetchYieldLink() LinkSpec {
	return LinkSpec{Mbps: 60, RTT: 0.020, BufBytes: 375000}
}

func fetchYieldTrial(seed int64, background string, dur float64) (dashMbps float64, plts []float64, fetchBytes int64) {
	var players []*dash.Player
	var f *fetch.Fetcher
	Run(Scenario{Seed: seed, Link: fetchYieldLink(), Duration: dur, Setup: func(e *Env) {
		players = dashPlayers(e, 3)
		pageLoads(e, &plts)
		if background == "none" {
			return
		}
		// Segments cross the bottleneck beside the foreground; requests
		// take its return path.
		n := engine.NewSimNet(e.S)
		maxPkt := wire.SegmentHeaderLen + fetch.DefaultSegSize
		srv := n.NewEngine(engine.Config{OnFetch: serveEndless, MaxPacket: maxPkt})
		cli := n.NewEngine(engine.Config{MaxPacket: maxPkt})
		n.Connect(srv.Addrs()[0], cli.Addrs()[0], e.Path)
		srv.Start()
		cli.Start()
		f = &fetch.Fetcher{Dst: srv.Addrs()[0], CC: NewController(e.S, background)}
		if err := f.Start(cli); err != nil {
			panic(err) // static configuration; a typo should fail loudly
		}
	}})
	if f != nil {
		fetchBytes = f.Stats().Delivered
	}
	return meanBitrate(players), plts, fetchBytes
}

// endlessSize is far more than the link moves in a run: the fetch never
// completes, so its goodput is pure steady-state yield.
const endlessSize = 1 << 40

var zeroSeg [fetch.DefaultSegSize]byte

// serveEndless is a stateless fetch server for one endlessSize object of
// zero bytes under a zero digest, whatever object a request names.
func serveEndless(h wire.FetchHeader, buf []byte) []byte {
	payload := zeroSeg[:]
	if h.Meta {
		payload = zeroSeg[:wire.DigestLen]
	}
	return wire.EncodeSegment(buf, wire.SegmentHeader{
		Nonce: h.Nonce, SentAtEcho: h.SentAt, Meta: h.Meta, ObjID: h.ObjID, Seg: h.Seg,
		TotalSegs: fetch.TotalSegs(endlessSize, fetch.DefaultSegSize), ObjSize: endlessSize,
	}, payload)
}

// FetchYieldTable renders the scavenger-yield results.
func FetchYieldTable(results []FetchYieldResult) *Table {
	t := &Table{
		Title:   "App F: bulk-fetch scavenger yield (DASH+web foreground)",
		XLabel:  "background",
		Columns: []string{"dash-Mbps", "web-p50(s)", "web-p95(s)", "web-p99(s)", "fetch-Mbps"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, TableRow{XName: "fetch=" + r.Background, Cells: []float64{
			r.DashMbps, r.WebP50, r.WebP95, r.WebP99, r.FetchMbps,
		}})
	}
	return t
}
