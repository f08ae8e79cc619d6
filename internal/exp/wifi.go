package exp

import (
	"fmt"
	"math/rand"

	"pccproteus/internal/netem"
)

// WiFiProfile is one synthetic stand-in for a (location, AWS-region)
// uplink path from §6.2.1: a modest-bandwidth bottleneck with lognormal
// per-packet jitter, occasional latency spikes, and bursty ACK release
// from irregular MAC scheduling.
type WiFiProfile struct {
	Link LinkSpec
}

// WiFiProfiles generates n deterministic path profiles. Parameters are
// drawn to match the paper's description of the measured channels:
// "typical RTT deviation up to 5 ms, occasional spikes tens of
// milliseconds higher".
func WiFiProfiles(n int, seed int64) []WiFiProfile {
	rng := rand.New(rand.NewSource(seed))
	out := make([]WiFiProfile, n)
	for i := range out {
		bw := 10 + rng.Float64()*50        // 10–60 Mbps uplink
		rtt := 0.020 + rng.Float64()*0.100 // 20–120 ms to the region
		bufBDP := 0.5 + rng.Float64()*2.5  // 0.5–3 BDP of buffer
		jitterMed := 0.0005 + rng.Float64()*0.002
		sigma := 0.5 + rng.Float64()*0.5
		spikeP := 0.0002 + rng.Float64()*0.0015
		out[i] = WiFiProfile{Link: LinkSpec{
			Mbps:     bw,
			RTT:      rtt,
			BufBytes: int(bufBDP * bw * 1e6 / 8 * rtt),
			Jitter: netem.SpikeNoise{
				Base:      netem.LognormalNoise{Median: jitterMed, Sigma: sigma},
				SpikeProb: spikeP,
				SpikeMin:  0.010,
				SpikeMax:  0.040,
			},
			AckHold: true,
		}}
	}
	return out
}

// Fig9 reproduces the single-flow WiFi test: each protocol runs alone on
// every profile; throughputs are normalized by the best protocol on that
// profile, and the per-protocol CDFs are returned.
func Fig9(o Options, protocols []string) []CDFSeries {
	o = o.withDefaults()
	nProfiles := 64
	dur := 120.0
	if o.Fast {
		nProfiles = 8
		dur = 60
	}
	profiles := WiFiProfiles(nProfiles, o.seedFor(7))
	series := make([]CDFSeries, len(protocols))
	for i, p := range protocols {
		series[i].Name = p
	}
	for pi, prof := range profiles {
		tputs := make([]float64, len(protocols))
		best := 0.0
		for i, proto := range protocols {
			tputs[i] = Run(Scenario{Trace: o.Trace, Label: fmt.Sprintf("fig9_p%d_%s", pi, proto), Seed: o.seedFor(int64(pi + 1)),
				Link: prof.Link, Flows: solo(proto), MeasureFrom: dur * 0.25, Duration: dur}).Flows[0].Mbps
			if tputs[i] > best {
				best = tputs[i]
			}
		}
		if best == 0 {
			continue
		}
		for i := range protocols {
			series[i].Values = append(series[i].Values, tputs[i]/best)
		}
	}
	return series
}

// Fig10 reproduces the WiFi yielding test: for each primary protocol,
// the CDF over profiles of the primary's throughput ratio when competing
// with each scavenger. Returns series named "<primary> vs <scavenger>".
func Fig10(o Options, scavengers []string) []CDFSeries {
	o = o.withDefaults()
	nProfiles := 64
	dur, measureFrom := 120.0, 40.0
	if o.Fast {
		nProfiles = 6
		dur, measureFrom = 80, 30
	}
	profiles := WiFiProfiles(nProfiles, o.seedFor(7))
	var out []CDFSeries
	for _, primary := range Primaries {
		for _, scv := range scavengers {
			s := CDFSeries{Name: primary + " vs " + scv}
			for pi, prof := range profiles {
				sc := Scenario{Trace: o.Trace, Label: fmt.Sprintf("fig10_p%d_%s_solo", pi, primary), Seed: o.seedFor(int64(pi + 1)),
					Link: prof.Link, Flows: solo(primary), MeasureFrom: measureFrom, Duration: dur}
				alone := Run(sc).Flows[0].Mbps
				if alone == 0 {
					continue
				}
				sc.Label = fmt.Sprintf("fig10_p%d_%s_vs_%s", pi, primary, scv)
				sc.Flows = []FlowSpec{{Proto: primary}, {Proto: scv, StartAt: 10}}
				ratio := Run(sc).Flows[0].Mbps / alone
				if ratio > 1 {
					ratio = 1
				}
				s.Values = append(s.Values, ratio)
			}
			out = append(out, s)
		}
	}
	return out
}
