package pathmodel

// Incast describes the datacenter incast scenario: FanIn synchronized
// senders (a partition-aggregate response wave) firing into one
// shallow-buffered top-of-rack port. Unlike the time-varying models,
// the path itself is static — the stress is the synchronized workload
// against a queue of only BufPkts packets — so Incast is a scenario
// descriptor, not a Model: exp's incast table builds its link (BufPkts
// full packets of queue, RTT split evenly between the two directions)
// and its flows from it.
type Incast struct {
	FanIn   int     // synchronized senders (default 32)
	Mbps    float64 // bottleneck port speed (default 1000)
	RTT     float64 // base round-trip, seconds (default 0.0005)
	BufPkts int     // queue depth in MTU packets — shallow by design (default 64)
	Bytes   int64   // per-sender response size (default 256 KiB)
}

// WithDefaults fills unset fields with the standard scenario.
func (ic Incast) WithDefaults() Incast {
	if ic.FanIn <= 0 {
		ic.FanIn = 32
	}
	if ic.Mbps <= 0 {
		ic.Mbps = 1000
	}
	if ic.RTT <= 0 {
		ic.RTT = 0.0005
	}
	if ic.BufPkts <= 0 {
		ic.BufPkts = 64
	}
	if ic.Bytes <= 0 {
		ic.Bytes = 256 << 10
	}
	return ic
}
