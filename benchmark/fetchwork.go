package main

import (
	"math"

	"pccproteus/internal/engine"
	"pccproteus/internal/fetch"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// The fetch workload: two receiver-driven fetchers, each pulling its
// own object through its own impairment shim. The controller is fixed
// rate on purpose: a real Proteus controller in wall-clock time swings
// per-flow goodput 11-28 Mbps run to run; fixed-rate repeats to a
// fraction of a percent, with the loss pattern pinned by the seed.
const (
	fetchFlows   = 2
	fetchBytes   = 16 << 20
	fetchMbps    = 40
	fetchOffered = 0.9 // pacing rate as a share of the shim's capacity
	fetchWindow  = 400000
)

func runFetchLossy(r *run) error {
	size := int64(math.Max(256<<10, math.Round(fetchBytes*r.cfg.Scale)))
	var first *fetch.LoopbackResult // repetition 1: its loss counts repeat exactly with the seed
	calls := int64(0)
	one := func(traced bool) (rep, error) {
		// Each repetition draws its own object bytes and loss pattern
		// from the seed: one unlucky pattern (a loss in the last window
		// costs a retransmission timeout, a tenth of a short transfer)
		// then moves one repetition, not every repetition of the run.
		calls++
		seed := wire.MixSeed(r.cfg.Seed, calls)
		id := r.spans.begin(r.root, "fetch", "fetch.RunLoopback (set-up + transfer + teardown)")
		defer r.spans.end(id)
		settle()
		sw := startWatch()
		res, err := fetch.RunLoopback(fetch.LoopbackConfig{
			NewController: func() transport.Controller {
				return &engine.FixedRateCC{Rate: fetchOffered * fetchMbps * 1e6 / 8, Win: fetchWindow}
			},
			Shim: wire.ShimConfig{RateMbps: fetchMbps, QueueBytes: 150000,
				Delay: 0.010, AckDelay: 0.010, LossProb: 0.01},
			Flows: fetchFlows, BytesPerFlow: size, Timeout: 60, Seed: seed,
		})
		total, cpu := sw.stop()
		if err != nil {
			return rep{}, err
		}
		// RunLoopback times each transfer from the moment every fetcher
		// is started; the rest of the call is object-store fill, socket
		// and shim bring-up, and teardown.
		var xfer, mean, segs float64
		for i, f := range res.Flows {
			xfer = math.Max(xfer, f.Secs)
			mean += f.Secs / float64(len(res.Flows))
			segs += float64(f.Fetcher.SegsRx)
			r.op(f.Done && f.Verified && f.Bytes == size,
				"fetch %d: done=%v verified=%v bytes=%d of %d", i, f.Done, f.Verified, f.Bytes, size)
			r.op(f.Fetcher.CrcErrs == 0 && f.Fetcher.Refetched == 0 && f.Shim.Overflow == 0,
				"fetch %d: crc errors %d, refetched %d, shim overflow %d", i, f.Fetcher.CrcErrs, f.Fetcher.Refetched, f.Shim.Overflow)
		}
		if first == nil {
			first = res
		}
		// The CPU reading spans the whole call: the harness cannot read
		// the clock inside RunLoopback. Set-up CPU (object fill and
		// hashing) is a constant few percent of it.
		// Throughput is per fetcher (bytes over the mean transfer time),
		// not bytes over the slower fetcher's time: one retransmission
		// timeout in one fetcher's last window then costs its share, not
		// everyone's.
		return rep{setup: total - xfer, wall: mean, cpu: cpu, pkts: segs, bytes: float64(res.TotalBytes)}, nil
	}
	if err := r.repeat(one, 0); err != nil {
		return err
	}
	var lost float64
	for _, f := range first.Flows {
		lost += float64(f.Fetcher.LostReqs)
	}
	r.info["fetch.lost_reqs"] = lost
	if !r.cfg.Traced {
		return nil
	}

	var refetched, dups, crc, p50, p99, enq, dropped, overflow float64
	for _, f := range first.Flows {
		refetched += float64(f.Fetcher.Refetched)
		dups += float64(f.Fetcher.Dups)
		crc += float64(f.Fetcher.CrcErrs)
		p50 += f.P50RTT * 1000 / fetchFlows
		p99 += f.P99RTT * 1000 / fetchFlows
		enq += float64(f.Shim.Enqueued + f.Shim.Dropped)
		dropped += float64(f.Shim.Dropped + f.Shim.LostRandom)
		overflow += float64(f.Shim.Overflow)
	}
	r.set("fetch.lost_reqs", lost)
	r.set("fetch.refetched", refetched)
	r.set("fetch.dups", dups)
	r.set("fetch.crc_errs", crc)
	r.set("fetch.efficiency", ratio(r.endToEnd()["goodput_mbps"], fetchOffered*fetchMbps*fetchFlows))
	r.set("fetch.rtt_p50_ms", p50)
	r.set("fetch.rtt_p99_ms", p99)
	r.set("wire.shim_drop_ratio", 100*ratio(dropped, enq))
	r.set("wire.shim_overflow", overflow)
	r.set("wire.recv_pkts", float64(first.Receiver.FetchReqs+first.Receiver.Pkts))
	layerFetch(r)
	layerWire(r)
	layerWireSender(r)
	return nil
}
