package exp

import (
	"fmt"

	"pccproteus/internal/campaign"
	"pccproteus/internal/core"
	"pccproteus/internal/dash"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
	"pccproteus/internal/web"
)

// accessLink models the §6.2.2 residential downlink: ~100 Mbps wired
// with a moderate buffer.
func accessLink() LinkSpec {
	return LinkSpec{Mbps: 100, RTT: 0.020, BufBytes: 500000}
}

// fig11Ladder is the video ladder for the DASH-with-scavenger benchmark
// (top rung ≈ 16 Mbps, matching the bitrate range of Fig. 11(a)).
var fig11Ladder = []float64{0.6, 1.2, 2.5, 4.5, 7, 11, 16}

// Fig11Background lists the background-flow variants of §6.2.2.
var Fig11Background = []string{"none", ProtoProteusS, ProtoLEDBAT, ProtoCubic}

// Fig11Video reproduces Fig. 11(a): n concurrent DASH videos (over
// CUBIC transport, as dash.js over TCP) share the downlink with one
// long-running background flow; the mean chunk bitrate across videos is
// reported per background protocol.
func Fig11Video(o Options) *Table {
	o = o.withDefaults()
	counts := []int{1, 2, 4, 8}
	dur := 180.0
	if o.Fast {
		counts = []int{1, 4}
		dur = 90
	}
	t := &Table{
		Title:   "Fig 11(a): average DASH bitrate (Mbps) vs concurrent videos",
		XLabel:  "videos",
		Columns: prefixAll("bg=", Fig11Background),
	}
	for _, n := range counts {
		row := TableRow{X: float64(n)}
		for _, bg := range Fig11Background {
			row.Cells = append(row.Cells, meanOver(o, func(_ int, seed int64) []float64 {
				return []float64{fig11VideoTrial(seed, n, bg, dur)}
			})[0])
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// background is the long-running flow list of a Fig 11 variant.
func background(proto string) []FlowSpec {
	if proto == "none" {
		return nil
	}
	return solo(proto)
}

// dashPlayers starts n DASH players (CUBIC transport, as dash.js over
// TCP) on the Fig 11 ladder.
func dashPlayers(e *Env, n int) []*dash.Player {
	video := dash.Video{Name: "vod", Ladder: fig11Ladder, ChunkDur: 3, Chunks: 1 << 20}
	players := make([]*dash.Player, n)
	for i := range players {
		players[i] = dash.NewPlayer(e.S, e.Add(FlowSpec{Proto: ProtoCubic}), video, dash.NewBOLA(24), 24)
		players[i].Start()
	}
	return players
}

// meanBitrate averages the players' mean chunk bitrates.
func meanBitrate(players []*dash.Player) float64 {
	sum := 0.0
	for _, p := range players {
		sum += p.Metrics().AvgBitrate()
	}
	return sum / float64(len(players))
}

// pageLoads requests random pages at Poisson rate 1 per 10 s for the
// life of the simulation, appending each page-load time to plts.
func pageLoads(e *Env, plts *[]float64) {
	s, connBase := e.S, 1000
	var spawn func()
	spawn = func() {
		page := web.RandomPage(s.Rand())
		pl := web.NewPageLoad(s, e.Path, page, connBase, func(plt float64) {
			*plts = append(*plts, plt)
		})
		connBase += 100
		pl.Start()
		s.After(s.Rand().ExpFloat64()*10, spawn)
	}
	s.After(s.Rand().ExpFloat64()*10, spawn)
}

func fig11VideoTrial(seed int64, nVideos int, bg string, dur float64) float64 {
	var players []*dash.Player
	Run(Scenario{Seed: seed, Link: accessLink(), Flows: background(bg), Duration: dur,
		Setup: func(e *Env) { players = dashPlayers(e, nVideos) }})
	return meanBitrate(players)
}

// Fig11Web reproduces Fig. 11(b): pages requested at Poisson rate 1 per
// 10 s for 10 minutes, with one background flow; returns the PLT
// distribution per background protocol.
func Fig11Web(o Options) []CDFSeries {
	o = o.withDefaults()
	dur := 600.0
	if o.Fast {
		dur = 150
	}
	var out []CDFSeries
	for _, bg := range Fig11Background {
		se := CDFSeries{Name: "bg=" + bg}
		campaign.OrderedReduce(o.Trials, o.Workers, func(t int) []float64 {
			return fig11WebTrial(o.seedFor(int64(t+1)), bg, dur)
		}, func(_ int, plts []float64) { se.Values = append(se.Values, plts...) })
		out = append(out, se)
	}
	return out
}

func fig11WebTrial(seed int64, bg string, dur float64) (plts []float64) {
	Run(Scenario{Seed: seed, Link: accessLink(), Flows: background(bg), Duration: dur,
		Setup: func(e *Env) { pageLoads(e, &plts) }})
	return plts
}

// Fig12Result is one bandwidth point of the hybrid-video experiment.
type Fig12Result struct {
	BandwidthMbps float64
	Mode          string // "proteus-h" or "proteus-p"
	Bitrate4K     float64
	Bitrate1080   float64
	Rebuf4K       float64
	Rebuf1080     float64
}

// Fig12 reproduces the §6.3 hybrid-mode video streaming benchmark: one
// 4K and three 1080P videos stream simultaneously for three minutes over
// a 30 ms / 900 KB bottleneck of varying bandwidth, with all senders
// using Proteus-H (thresholds driven by the §4.4 rules) or all using
// Proteus-P. Setting forceMax pins the ABR at the top rung (Figure 13).
func Fig12(o Options, forceMax bool) []Fig12Result {
	o = o.withDefaults()
	bws := []float64{70, 80, 90, 100, 110, 120}
	if forceMax {
		bws = []float64{90, 100, 110, 120, 130, 140}
	}
	if o.Fast {
		if forceMax {
			bws = []float64{100, 120}
		} else {
			bws = []float64{80, 110}
		}
	}
	dur := 180.0
	var out []Fig12Result
	for _, bw := range bws {
		for _, mode := range []string{ProtoProteusH, ProtoProteusP} {
			m := meanOver(o, func(_ int, seed int64) []float64 {
				m4, m1080 := fig12Trial(seed, bw, mode, forceMax, dur)
				return []float64{m4.AvgBitrate(), m1080.AvgBitrate(), m4.RebufferRatio(), m1080.RebufferRatio()}
			})
			out = append(out, Fig12Result{BandwidthMbps: bw, Mode: mode,
				Bitrate4K: m[0], Bitrate1080: m[1], Rebuf4K: m[2], Rebuf1080: m[3]})
		}
	}
	return out
}

func fig12Trial(seed int64, bw float64, mode string, forceMax bool, dur float64) (m4k, m1080 dash.Metrics) {
	var players []*dash.Player
	Run(Scenario{Seed: seed, Link: LinkSpec{Mbps: bw, RTT: 0.030, BufBytes: 900000}, Duration: dur, Setup: func(e *Env) {
		corpus := dash.Corpus(10, 10, e.S.Rand())
		// Randomly select one 4K and three 1080P titles, as in §6.3.
		videos := []dash.Video{corpus[e.S.Rand().Intn(10)]}
		for i := 0; i < 3; i++ {
			videos = append(videos, corpus[10+e.S.Rand().Intn(10)])
		}
		var abr dash.ABR = dash.NewBOLA(24)
		if forceMax {
			abr = dash.ForceMax{}
		}
		for _, v := range videos {
			var hybrid *core.Hybrid
			flow := FlowSpec{Proto: mode}
			if mode == ProtoProteusH {
				flow.New = func(s *sim.Sim) transport.Controller {
					c, h := core.NewProteusH(s.Rand())
					hybrid = h
					return c
				}
			}
			p := dash.NewPlayer(e.S, e.Add(flow), v, abr, 24)
			p.Hybrid = hybrid
			players = append(players, p)
			p.Start()
		}
	}})
	m4k = players[0].Metrics()
	var sum dash.Metrics
	for _, p := range players[1:] {
		m := p.Metrics()
		sum.BitrateSum += m.BitrateSum
		sum.ChunksPlayed += m.ChunksPlayed
		sum.PlayTime += m.PlayTime
		sum.StallTime += m.StallTime
	}
	return m4k, sum
}

// Fig12Table renders the hybrid-video results.
func Fig12Table(results []Fig12Result, forceMax bool) *Table {
	title := "Fig 12: hybrid mode in adaptive video streaming"
	if forceMax {
		title = "Fig 13: rebuffer ratio with ABR forced to highest bitrates"
	}
	t := &Table{
		Title:   title,
		XLabel:  "bw(Mbps)/mode",
		Columns: []string{"4K bitrate", "1080P bitrate", "4K rebuf%", "1080P rebuf%"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, TableRow{
			XName: fmt.Sprintf("%.0f/%s", r.BandwidthMbps, r.Mode),
			Cells: []float64{r.Bitrate4K, r.Bitrate1080, r.Rebuf4K * 100, r.Rebuf1080 * 100},
		})
	}
	return t
}

func prefixAll(prefix string, in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = prefix + s
	}
	return out
}
