package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime/debug"
	"time"
)

// runConfig is what one workload run is told.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // measured time budget across repetitions
	Scale    float64 // batch-size multiplier (1 = the catalogued sizes)
	Traced   bool
	OutDir   string
	Update   bool // refresh goldens instead of checking them
}

// rep is one repetition: a full set-up followed by one measured region.
type rep struct {
	setup float64  // seconds
	wall  float64  // seconds, measured region only
	cpu   cpuTimes // measured region only
	pkts  float64  // data packets (or segments) delivered
	bytes float64  // verified payload bytes delivered
	ref   float64  // mean of the reference-kernel runs before and after, ms
}

// run is the state of one workload run in this process.
type run struct {
	cfg    runConfig
	w      workload
	out    io.Writer
	spans  *spanLog // nil when tracing is off
	root   int      // root span id
	golden *goldenStore

	attempted, failed int64
	complaints        []string

	reps  []rep
	layer map[string]float64 // per-layer metric values (traced runs)
	info  map[string]float64 // workload-specific extras shown on stdout
}

// op counts one attempted operation; a false ok is a failure with a
// reason. Failures are what fail_share (failed ÷ attempted) is made of.
func (r *run) op(ok bool, format string, args ...any) {
	r.ops(1)
	if !ok {
		r.fail(1, format, args...)
	}
}

// ops counts n attempted operations; fail marks the ones that failed.
func (r *run) ops(n int64) { r.attempted += n }

// fail records n failures of already-counted operations.
func (r *run) fail(n int64, format string, args ...any) {
	r.failed += n
	msg := fmt.Sprintf(format, args...)
	if len(r.complaints) < 20 {
		r.complaints = append(r.complaints, msg)
	}
	fmt.Fprintf(r.out, "FAIL %s: %s\n", r.cfg.Workload, msg)
}

// checkGolden compares one deterministic result with the committed
// golden and with the first repetition's value.
func (r *run) checkGolden(part, got string, first *string) {
	if *first == "" {
		*first = got
	}
	r.op(got == *first, "%s: repetition disagrees with the first one (nondeterminism)", part)
	if r.cfg.Scale != 1 {
		return
	}
	v := r.golden.check(goldenKey(r.cfg.Workload, part, r.cfg.Seed), got, r.cfg.Update)
	r.op(v != goldenDiffers, "%s: golden mismatch at seed %d (a model change needs -update-golden)", part, r.cfg.Seed)
	r.info["golden."+part] = map[string]float64{goldenMatch: 1, goldenMissing: 0, goldenDiffers: -1}[v]
}

// budgetLeft reports whether another repetition of about the size of
// the ones already run still fits the time budget. At least one
// repetition always runs.
func (r *run) budgetLeft() bool {
	if len(r.reps) == 0 {
		return true
	}
	var spent float64
	walls := make([]float64, len(r.reps))
	for i, p := range r.reps {
		spent += p.wall
		walls[i] = p.wall
	}
	return spent+0.5*median(walls) <= r.cfg.Seconds
}

// realTimeReps is how many set-up + measured-window repetitions the
// real-time workloads split the time budget into: enough that one
// window hit by a noisy neighbour does not move the median.
const realTimeReps = 5

// settle collects garbage and hands freed pages back to the OS, so the
// next repetition starts from the same heap and the process's peak RSS
// is one repetition's footprint, not an accident of collector timing.
func settle() { debug.FreeOSMemory() }

// scaled shortens a fixed warm-up for scaled-down runs.
func (r *run) scaled(d time.Duration) time.Duration {
	return max(time.Duration(float64(d)*math.Min(1, r.cfg.Scale)), 20*time.Millisecond)
}

func (r *run) window() time.Duration {
	return time.Duration(r.cfg.Seconds / realTimeReps * float64(time.Second))
}

func (r *run) set(name string, v float64) { r.layer[name] = v }

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is printed on the line before the result for the full-set
// driver: everything about the run that the contract line has no room
// for.
type detail struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	Reps       int                `json:"reps"`
	Env        envRecord          `json:"env"`
	Info       map[string]float64 `json:"info"`
	RepWallS   []float64          `json:"rep_wall_s"` // per repetition, the run's own variance record
	RepPkts    []float64          `json:"rep_pkts"`
	RepCPUs    []float64          `json:"rep_cpu_s"`
	RepSetupS  []float64          `json:"rep_setup_s"`
	RepRefMS   []float64          `json:"rep_ref_ms"` // reference kernel around each repetition
	Complaints []string           `json:"complaints,omitempty"`
	SelfTimeS  map[string]float64 `json:"self_time_s,omitempty"`
}

const detailPrefix = "detail: "

// endToEnd folds the repetitions into the end-to-end metrics: medians
// over repetitions, peak RSS of the whole process. CPU-bound quantities
// are corrected to reference host speed repetition by repetition.
func (r *run) endToEnd() map[string]float64 {
	var setup, pps, mbps, cpu, rawPPS, rawCPU, speeds []float64
	for _, p := range r.reps {
		speed := hostSlowdown(p.ref)
		tput, prep := 1.0, 1.0
		if r.w.CPUBound {
			tput = speed
		}
		if r.w.ComputeSetup {
			prep = speed
		}
		setup = append(setup, p.setup/prep)
		pps = append(pps, ratio(p.pkts, p.wall)*tput)
		mbps = append(mbps, ratio(p.bytes*8/1e6, p.wall)*tput)
		cpu = append(cpu, ratio(p.cpu.total()*1e6, p.pkts)/speed)
		rawPPS = append(rawPPS, ratio(p.pkts, p.wall))
		rawCPU = append(rawCPU, ratio(p.cpu.total()*1e6, p.pkts))
		speeds = append(speeds, speed)
	}
	// The run's own noise record: the uncorrected medians, how slow the
	// host was, and how far apart the repetitions were.
	r.info["raw.pkts_per_s"] = median(rawPPS)
	r.info["raw.cpu_us_per_pkt"] = median(rawCPU)
	r.info["host.slowdown"] = median(speeds)
	r.info["reps.pkts_per_s_spread_pct"] = 100 * ratio(quantile(pps, 1)-quantile(pps, 0), median(pps))
	return map[string]float64{
		"setup_s":        median(setup),
		"pkts_per_s":     median(pps),
		"goodput_mbps":   median(mbps),
		"cpu_us_per_pkt": median(cpu),
		"peak_rss_mb":    peakRSSMB(),
	}
}

// execute runs one workload in this process and prints its report.
func execute(cfg runConfig, out io.Writer) (result, detail, error) {
	w, ok := workloadByName(cfg.Workload)
	if !ok {
		return result{}, detail{}, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	g, err := loadGoldens(dataPath("golden.json"))
	if err != nil {
		return result{}, detail{}, err
	}
	env := newEnvRecord()
	if env.Noisy {
		fmt.Fprintf(out, "NOISY: load average %.2f exceeds nproc/2 = %.1f before the run; timings are suspect\n",
			env.LoadBefore, float64(env.NProc)/2)
	}
	r := &run{cfg: cfg, w: w, out: out, golden: g, layer: map[string]float64{}, info: map[string]float64{}}
	if cfg.Traced {
		r.spans = newSpanLog(cfg.Workload)
		r.root = r.spans.begin(0, "harness", cfg.Workload)
	}
	if err := w.run(r); err != nil {
		return result{}, detail{}, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	r.spans.end(r.root)
	if err := g.save(); err != nil {
		return result{}, detail{}, err
	}
	env.finish()

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	e2e := r.endToEnd()
	r.info["cpu_us_per_pkt"] = e2e["cpu_us_per_pkt"]
	r.set("harness.cpu_us_per_pkt", e2e["cpu_us_per_pkt"])
	r.set("harness.host_slowdown", r.info["host.slowdown"])
	fmt.Fprintf(out, "## %s  seed=%d  reps=%d  traced=%v  fail_share=%d/%d\n   loop: %s\n",
		cfg.Workload, cfg.Seed, len(r.reps), cfg.Traced, r.failed, r.attempted, w.Loop)
	if cfg.Traced {
		for _, m := range perLayer {
			v, ran := r.layer[m.Name] // a layer this workload does not run reports 0
			res.Metrics[m.Name] = metricValue{v, m.Unit}
			if ran {
				fmt.Fprintf(out, "  %-32s %14.4f %-8s (%s)\n", m.Name, v, m.Unit, m.Moves)
			}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
			fmt.Fprintf(out, "  %-32s %14.4f %-8s (%s is better, bound %.0f%%)\n",
				m.Name, e2e[m.Name], m.Unit, m.Better, m.Bound*100)
		}
	}
	for _, k := range sortedKeys(r.info) {
		fmt.Fprintf(out, "  %-32s %14.4f\n", k, r.info[k])
	}
	d := detail{Workload: cfg.Workload, Seed: cfg.Seed, Traced: cfg.Traced, Reps: len(r.reps),
		Env: env, Info: r.info, Complaints: r.complaints}
	for _, p := range r.reps {
		d.RepWallS = append(d.RepWallS, p.wall)
		d.RepPkts = append(d.RepPkts, p.pkts)
		d.RepCPUs = append(d.RepCPUs, p.cpu.total())
		d.RepSetupS = append(d.RepSetupS, p.setup)
		d.RepRefMS = append(d.RepRefMS, p.ref)
	}
	if cfg.Traced {
		d.SelfTimeS = r.spans.selfTimes()
		if err := r.spans.write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json")); err != nil {
			return result{}, detail{}, err
		}
	}
	return res, d, nil
}

// printResult writes the detail line and, last, the contract line.
func printResult(out io.Writer, res result, d detail) error {
	db, err := json.Marshal(d)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s%s\n%s\n", detailPrefix, db, rb)
	return err
}
