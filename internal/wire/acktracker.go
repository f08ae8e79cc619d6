package wire

// AckTracker maintains the receive-side sequence state of one flow: a
// cumulative ack (every seq < Cum received) plus sorted disjoint SACK
// ranges above it. The engine's receiver flows embed one each.
type AckTracker struct {
	Cum    int64 // every seq < Cum has been received
	Ranges []SackBlock
}

// maxTrackedRanges bounds per-flow SACK state under pathological
// loss; overflow discards the lowest range, whose packets the sender
// will eventually retire by RTO.
const maxTrackedRanges = 64

// Record merges seq into the cumulative-ack/SACK state and reports
// whether it was new.
func (f *AckTracker) Record(seq int64) bool {
	if seq < f.Cum {
		return false
	}
	if seq == f.Cum {
		f.Cum++
		for len(f.Ranges) > 0 && f.Ranges[0].Start <= f.Cum {
			if f.Ranges[0].End > f.Cum {
				f.Cum = f.Ranges[0].End
			}
			f.Ranges = f.Ranges[1:]
		}
		return true
	}
	// Out-of-order arrival: splice into the sorted disjoint ranges.
	for i := range f.Ranges {
		bl := &f.Ranges[i]
		switch {
		case seq >= bl.Start && seq < bl.End:
			return false
		case seq == bl.End:
			bl.End++
			if i+1 < len(f.Ranges) && f.Ranges[i+1].Start == bl.End {
				bl.End = f.Ranges[i+1].End
				f.Ranges = append(f.Ranges[:i+1], f.Ranges[i+2:]...)
			}
			return true
		case seq == bl.Start-1:
			bl.Start--
			return true
		case seq < bl.Start:
			f.Ranges = append(f.Ranges, SackBlock{})
			copy(f.Ranges[i+1:], f.Ranges[i:])
			f.Ranges[i] = SackBlock{Start: seq, End: seq + 1}
			return true
		}
	}
	f.Ranges = append(f.Ranges, SackBlock{Start: seq, End: seq + 1})
	if len(f.Ranges) > maxTrackedRanges {
		f.Ranges = f.Ranges[1:]
	}
	return true
}
