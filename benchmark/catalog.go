package main

// The catalogue: every workload and every metric the benchmark reports,
// in the order they are printed. BENCHMARK.json repeats the names,
// units, directions and bounds; bench_test.go checks the two agree.

type workload struct {
	Name string
	Loop string // open or closed, and with how many clients
	Why  string
	run  func(*run) error
	// CPUBound: the measured region runs as fast as the CPU lets it, so
	// its throughput is reported at reference host speed (see hostSlowdown).
	// The other workloads are paced by timers or an emulated link and
	// report wall-clock throughput as it is.
	CPUBound bool
	// ComputeSetup: set-up is computation too (no sleeps, no sockets) and
	// is reported at reference host speed as well.
	ComputeSetup bool
}

type metric struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

var workloads = []workload{
	{"campaign-fleet", "fixed batch in virtual time, no clients (one simulation after another, workers=1)",
		"many short Pareto flows: flow set-up/teardown, controller construction and sketch merges dominate; per-event cost is diluted by churn",
		runCampaignFleet, true, true},
	{"sim-longflows", "fixed batch in virtual time, no clients (mix4, yield, lte scenarios back to back)",
		"same sim stack, 2-4 steady flows, tiny heap, zero churn: per-packet cost of event queue + link + sender + controller dominates; a flow-set-up optimisation must not move it",
		runSimLongflows, true, true},
	{"engine-bulk", "closed loop: 1000 flows, each ack-clocked on an 8-packet window, saturating; real loopback sockets",
		"smallest packets (400 B), per-packet datapath cost dominates: rx/tx batching, codec, flow table, wheel, syscalls",
		runEngineBulk, true, false},
	{"engine-churn", "closed loop: 32 clients, each starts its next 36 kB flow when the last one completes; one generator goroutine polling every 200 us",
		"same engine used for AddFlow/admission/table growth/ack-tail latency instead of steady pumping: batching that buys bulk pps by delaying acks shows here",
		runEngineChurn, false, false},
	{"fetch-lossy", "closed loop: 2 receiver-driven fetchers, each behind its own 40 Mbps / 20 ms / 1 % loss shim",
		"the legacy goroutine-pair wire path + fetch.Core + loss recovery in the pull direction: the guard for deleting wire.Sender/Receiver",
		runFetchLossy, false, false},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endToEnd is reported by every workload with tracing off. A packet is
// a delivered data packet: simulated (netem LinkStats.Delivered, or
// aggregate bytes / MTU for the campaign) in the virtual-time workloads,
// a distinct datagram on loopback for the engine, a verified segment
// for the fetch. CPU-bound quantities (throughput of the CPU-bound
// workloads, computed set-up, and the per-layer CPU time per packet) are
// reported at reference host speed: see hostSlowdown in measure.go. Bounds
// are one number per metric and so are sized for the noisiest workload
// that reports it (see README).
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pkts_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "goodput_mbps", Unit: "Mbit/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

const (
	mvSimLong  = "pkts_per_s@sim-longflows"
	mvCampaign = "pkts_per_s@campaign-fleet"
	mvBulk     = "pkts_per_s@engine-bulk"
	mvChurn    = "pkts_per_s@engine-churn"
	mvFetch    = "goodput_mbps@fetch-lossy"
)

// perLayer is reported by traced runs. A workload that does not run a
// layer reports 0 for that layer's metrics.
var perLayer = []metric{
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: traced minus untraced wall per packet, same process"},
	{Name: "harness.host_slowdown", Unit: "ratio", Better: "lower", Moves: "none: reference kernel time / 100 ms, the host's gear during the run"},
	{Name: "harness.cpu_us_per_pkt", Unit: "us", Better: "lower", Moves: "the cost side of pkts_per_s on every workload; not end-to-end because it wanders 1.7-3.0 us on engine-churn with no code change"},

	{Name: "sim.event_ns", Unit: "ns", Better: "lower", Moves: mvSimLong + " strongly, " + mvCampaign + " weakly"},
	{Name: "sim.event_deep_ns", Unit: "ns", Better: "lower", Moves: mvCampaign + " (heap depth 4096)"},
	{Name: "sim.event_allocs", Unit: "count", Better: "lower", Moves: mvSimLong},
	{Name: "sim.timer_calls_per_pkt", Unit: "count", Better: "lower", Moves: mvSimLong},
	{Name: "sim.sched_share", Unit: "%", Better: "lower", Moves: mvSimLong},
	{Name: "sim.ns_per_pkt", Unit: "ns", Better: "lower", Moves: mvSimLong},

	{Name: "netem.send_ns", Unit: "ns", Better: "lower", Moves: mvSimLong},
	{Name: "netem.ns_per_pkt", Unit: "ns", Better: "lower", Moves: mvSimLong},
	{Name: "netem.pkts", Unit: "count", Better: "higher", Moves: "none: exact work count"},
	{Name: "netem.drop_ratio", Unit: "%", Better: "lower", Moves: "none: exact, model property"},

	{Name: "transport.residual_ns_per_pkt", Unit: "ns", Better: "lower", Moves: mvSimLong},
	{Name: "transport.retx_ratio", Unit: "%", Better: "lower", Moves: "none: exact, model property"},

	{Name: "core.ctl_ns_per_pkt", Unit: "ns", Better: "lower", Moves: mvSimLong},
	{Name: "core.ctl_share", Unit: "%", Better: "lower", Moves: mvSimLong},
	{Name: "core.calls_per_pkt", Unit: "count", Better: "lower", Moves: mvSimLong},
	{Name: "core.proteus_ns_per_ack", Unit: "ns", Better: "lower", Moves: mvSimLong},
	{Name: "cc.cubic_ns_per_ack", Unit: "ns", Better: "lower", Moves: mvSimLong},
	{Name: "cc.bbr_ns_per_ack", Unit: "ns", Better: "lower", Moves: mvSimLong},
	{Name: "core.new_ns", Unit: "ns", Better: "lower", Moves: mvCampaign + " only"},
	{Name: "core.new_count", Unit: "count", Better: "lower", Moves: mvCampaign + " only"},
	{Name: "core.primary_ratio", Unit: "ratio", Better: "higher", Moves: "none: the paper's yielding claim, pinned by the goldens"},

	{Name: "pathmodel.steps_ns", Unit: "ns", Better: "lower", Moves: "setup_s@sim-longflows"},
	{Name: "pathmodel.steps_allocs", Unit: "count", Better: "lower", Moves: "setup_s@sim-longflows"},
	{Name: "pathmodel.apply_count", Unit: "count", Better: "lower", Moves: "setup_s@sim-longflows"},

	{Name: "campaign.flows_per_s", Unit: "1/s", Better: "higher", Moves: mvCampaign},
	{Name: "campaign.allocs_per_flow", Unit: "count", Better: "lower", Moves: mvCampaign + ", peak_rss_mb@campaign-fleet"},
	{Name: "campaign.bytes_per_flow", Unit: "B", Better: "lower", Moves: mvCampaign + ", peak_rss_mb@campaign-fleet"},
	{Name: "campaign.gc_share", Unit: "%", Better: "lower", Moves: mvCampaign},
	{Name: "campaign.scale_eff_2w", Unit: "ratio", Better: "higher", Moves: "none at workers=1; campaign wall at 2 workers"},
	{Name: "campaign.encode_ms", Unit: "ms", Better: "lower", Moves: mvCampaign + " weakly"},

	{Name: "stats.loghist_add_ns", Unit: "ns", Better: "lower", Moves: mvCampaign},
	{Name: "stats.loghist_merge_ns", Unit: "ns", Better: "lower", Moves: mvCampaign},

	{Name: "trace.on_overhead_pct", Unit: "%", Better: "lower", Moves: mvSimLong + " when a trace.Recorder is attached; 0 when off"},

	{Name: "wire.data_codec_ns", Unit: "ns", Better: "lower", Moves: mvBulk + ", " + mvFetch},
	{Name: "wire.ack_codec_ns", Unit: "ns", Better: "lower", Moves: mvBulk},
	{Name: "wire.pacer_ns", Unit: "ns", Better: "lower", Moves: mvFetch},
	{Name: "wire.ack_process_ns", Unit: "ns", Better: "lower", Moves: mvFetch},
	{Name: "wire.shim_drop_ratio", Unit: "%", Better: "lower", Moves: "none: exact with the seed"},
	{Name: "wire.shim_overflow", Unit: "count", Better: "lower", Moves: "none: must be 0"},
	{Name: "wire.recv_pkts", Unit: "count", Better: "higher", Moves: "none: work count"},

	{Name: "engine.hotpath_ns", Unit: "ns", Better: "lower", Moves: mvBulk},
	{Name: "engine.hotpath_allocs", Unit: "count", Better: "lower", Moves: mvBulk},
	{Name: "engine.rx_batch_fill", Unit: "count", Better: "higher", Moves: mvBulk},
	{Name: "engine.tx_batch_fill", Unit: "count", Better: "higher", Moves: mvBulk},
	{Name: "engine.ack_rx_batch_fill", Unit: "count", Better: "higher", Moves: mvBulk},
	{Name: "engine.ack_tx_batch_fill", Unit: "count", Better: "higher", Moves: mvBulk},
	{Name: "engine.sys_cpu_share", Unit: "%", Better: "lower", Moves: mvBulk},
	{Name: "engine.kernel_gap_ns", Unit: "ns", Better: "lower", Moves: mvBulk},
	{Name: "engine.loss_ratio", Unit: "%", Better: "lower", Moves: mvBulk},
	{Name: "engine.dup_ratio", Unit: "%", Better: "lower", Moves: "none: must be 0"},
	{Name: "engine.tx_soft_errs", Unit: "count", Better: "lower", Moves: mvBulk},
	{Name: "engine.addflow_us_p50", Unit: "us", Better: "lower", Moves: mvChurn + "; no change on engine-bulk"},
	{Name: "engine.addflow_us_p99", Unit: "us", Better: "lower", Moves: mvChurn + "; no change on engine-bulk"},
	{Name: "engine.fct_p50_ms", Unit: "ms", Better: "lower", Moves: mvChurn + " (throughput = 32 / FCT)"},
	{Name: "engine.fct_p99_ms", Unit: "ms", Better: "lower", Moves: "tail of " + mvChurn},
	{Name: "engine.fct_samples", Unit: "count", Better: "higher", Moves: "none: sample count behind the FCT percentiles"},
	{Name: "engine.tail_ms", Unit: "ms", Better: "lower", Moves: mvChurn + "; no change on engine-bulk"},
	{Name: "engine.churn_flows_per_s", Unit: "1/s", Better: "higher", Moves: mvChurn},
	{Name: "engine.sender_table_flows", Unit: "count", Better: "lower", Moves: "peak_rss_mb@engine-churn"},
	{Name: "engine.addflow_refused", Unit: "count", Better: "lower", Moves: "none: must be 0"},
	{Name: "engine.open_fct_p99_ms", Unit: "ms", Better: "lower", Moves: "none: open-loop phase exists in traced runs only"},
	{Name: "engine.gen_late_ms", Unit: "ms", Better: "lower", Moves: "none: how late the open-loop generator ran"},

	{Name: "overload.update_ns", Unit: "ns", Better: "lower", Moves: mvBulk + " (runs every loop pass)"},

	{Name: "fetch.core_ns_per_seg", Unit: "ns", Better: "lower", Moves: mvFetch},
	{Name: "fetch.core_allocs", Unit: "count", Better: "lower", Moves: mvFetch},
	{Name: "fetch.lost_reqs", Unit: "count", Better: "lower", Moves: "none: exact with the seed"},
	{Name: "fetch.refetched", Unit: "count", Better: "lower", Moves: "none: must be 0"},
	{Name: "fetch.dups", Unit: "count", Better: "lower", Moves: mvFetch},
	{Name: "fetch.crc_errs", Unit: "count", Better: "lower", Moves: "none: must be 0"},
	{Name: "fetch.efficiency", Unit: "ratio", Better: "higher", Moves: mvFetch},
	{Name: "fetch.rtt_p50_ms", Unit: "ms", Better: "lower", Moves: mvFetch},
	{Name: "fetch.rtt_p99_ms", Unit: "ms", Better: "lower", Moves: mvFetch},
}
