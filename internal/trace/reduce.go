package trace

import "math"

// FlowSummary is one flow's trace reduced to fixed-width time buckets:
// the same per-second (or any width) throughput/RTT/loss timelines the
// paper's timeline figures print, rebuilt from the event stream alone.
type FlowSummary struct {
	Flow   int32
	Bucket float64 // bucket width, seconds

	// ThroughputMbps[i] is the acked-byte rate over [i·w, (i+1)·w),
	// computed from the cumulative acked-bytes counter carried by RTT
	// samples.
	ThroughputMbps []float64
	// AvgRTT[i] is the mean of the bucket's RTT samples (NaN if none).
	AvgRTT []float64
	// LossPkts[i] counts the bucket's drop events of every reason.
	LossPkts []int
}

// Reduce buckets one flow's events (as returned by Recorder.Events or
// ReadJSONL: oldest first) at the given width. horizon bounds the
// timeline; if zero, it is the last event time rounded up to a bucket.
//
// Bucket boundaries are half-open [k·w, (k+1)·w): an event at exactly
// k·w lands in bucket k. This matches the experiment harness's
// per-second measurement callbacks, which are scheduled before the
// run and therefore fire ahead of any ack at the same instant.
func Reduce(evs []Event, bucket, horizon float64) FlowSummary {
	if bucket <= 0 {
		bucket = 1
	}
	if horizon <= 0 {
		for _, ev := range evs {
			if ev.T > horizon {
				horizon = ev.T
			}
		}
	}
	n := int(math.Ceil(horizon/bucket - 1e-9))
	if n < 0 {
		n = 0
	}
	s := FlowSummary{
		Bucket:         bucket,
		ThroughputMbps: make([]float64, n),
		AvgRTT:         make([]float64, n),
		LossPkts:       make([]int, n),
	}
	if len(evs) > 0 {
		s.Flow = evs[0].Flow
	}
	// cumAt[k] is cumulative acked bytes strictly before boundary k·w.
	cumAt := make([]float64, n+1)
	rttSum := make([]float64, n)
	rttN := make([]int, n)
	cum := 0.0
	b := 1
	for _, ev := range evs {
		for b <= n && ev.T >= float64(b)*bucket {
			cumAt[b] = cum
			b++
		}
		i := int(ev.T / bucket)
		switch ev.Kind {
		case KindRTTSample:
			cum = ev.C
			if i >= 0 && i < n {
				rttSum[i] += ev.A
				rttN[i]++
			}
		case KindPacketDrop:
			if i >= 0 && i < n {
				s.LossPkts[i]++
			}
		}
	}
	for ; b <= n; b++ {
		cumAt[b] = cum
	}
	for i := 0; i < n; i++ {
		s.ThroughputMbps[i] = (cumAt[i+1] - cumAt[i]) * 8 / bucket / 1e6
		if rttN[i] > 0 {
			s.AvgRTT[i] = rttSum[i] / float64(rttN[i])
		} else {
			s.AvgRTT[i] = math.NaN()
		}
	}
	return s
}
