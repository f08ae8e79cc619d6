package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pccproteus/internal/campaign"
	"pccproteus/internal/trace"
	"pccproteus/internal/transport"
)

// Tracing here is outside-in: nothing under internal/ is edited. Spans
// wrap the harness's own calls into each layer's public functions;
// per-packet boundaries (controller callbacks, clock scheduling) are
// far too hot for a span each, so a decorator accumulates their call
// count and busy time and the harness emits one aggregate span per
// (scenario, layer) when the scenario ends.

// span is one traced interval. Start and End are nanoseconds since the
// run began. Calls and BusyNs are set on aggregate spans, whose busy
// time is the sum of many short calls inside [Start, End].
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Calls    int64  `json:"calls,omitempty"`
	BusyNs   int64  `json:"busy_ns,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the tracing-off state: every method is a no-op returning id 0.
type spanLog struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{t0: time.Now(), workload: workload}
}

func (l *spanLog) begin(parent int, layer, name string) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Workload: l.workload,
		Layer: layer, Name: name, Start: now, End: now})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// aggregate records one span covering the parent's interval whose busy
// time was accumulated by a decorator.
func (l *spanLog) aggregate(parent int, layer, name string, c callClock) {
	if l == nil || c.calls == 0 {
		return
	}
	id := l.begin(parent, layer, name)
	l.mu.Lock()
	s := &l.spans[id-1]
	if parent > 0 {
		s.Start, s.End = l.spans[parent-1].Start, l.spans[parent-1].End
	}
	s.Calls, s.BusyNs = c.calls, c.net().Nanoseconds()
	l.mu.Unlock()
}

// selfTimes derives each layer's self time from the spans: a span's
// duration (or its busy time, for an aggregate) minus what its children
// cover, summed by layer.
func (l *spanLog) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans)+1)
	dur := func(s span) int64 {
		if s.Calls > 0 {
			return s.BusyNs
		}
		return s.End - s.Start
	}
	for _, s := range l.spans {
		child[s.Parent] += dur(s)
	}
	for _, s := range l.spans {
		self := dur(s) - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Layer] += float64(self) / 1e9
	}
	return out
}

// write stores this run's spans at path as one JSON document.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{l.workload, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// timerCost is what one time.Now/time.Since pair reads when nothing
// runs between them: the part of the timer's own cost that lands inside
// every timed interval, which callClock.net takes out again.
var timerCost = calibrateTimer()

func calibrateTimer() time.Duration {
	const n = 20000
	samples := make([]float64, 5)
	for i := range samples {
		var sum time.Duration
		for j := 0; j < n; j++ {
			t := time.Now()
			sum += time.Since(t)
		}
		samples[i] = float64(sum) / n
	}
	return time.Duration(median(samples))
}

// sampleEvery is the stride of the per-packet decorators: every call is
// counted, one in sampleEvery is timed. A clock read costs ~60 ns on
// this class of VM, about what a controller callback costs itself, so
// timing every call would nearly double the run time being attributed.
// The stride is prime so it cannot lock onto a pacing-train length.
const sampleEvery = 31

// callClock accumulates calls across one layer boundary: all of them
// counted, timed of them timed for busy in total.
type callClock struct {
	calls int64
	timed int64
	busy  time.Duration
}

// sample counts a call and reports whether to time it.
func (c *callClock) sample() bool {
	c.calls++
	return c.calls%sampleEvery == 0
}

// stop ends a timed call that sample said to time, started at t0.
func (c *callClock) stop(t0 time.Time) {
	c.busy += time.Since(t0)
	c.timed++
}

// record counts one call that took d; for boundaries cool enough to
// time every call.
func (c *callClock) record(d time.Duration) {
	c.calls++
	c.timed++
	c.busy += d
}

func (c *callClock) merge(o callClock) {
	c.calls += o.calls
	c.timed += o.timed
	c.busy += o.busy
}

// net is the busy time of all calls, estimated from the timed ones with
// the timer's own cost taken out.
func (c callClock) net() time.Duration {
	if c.timed == 0 {
		return 0
	}
	d := c.busy - time.Duration(c.timed)*timerCost
	if d < 0 {
		return 0
	}
	return time.Duration(float64(d) * float64(c.calls) / float64(c.timed))
}

func (c callClock) nsPerCall() float64 {
	return ratio(float64(c.net().Nanoseconds()), float64(c.calls))
}

// ccClocks is one callClock per Controller method.
type ccClocks [ccMethods]callClock

const (
	ccSend = iota
	ccAck
	ccLoss
	ccRate
	ccWnd
	ccMethods
)

// ccProbe collects what the decorated controllers of one scenario (or
// one campaign) saw. Controllers of one name share one set of clocks,
// so the sampling stride runs across flows and a flow too short to
// reach the stride on its own is still sampled fairly. Nothing here is
// locked: a probe serves one simulation thread (campaigns are traced at
// workers=1).
type ccProbe struct {
	byName   map[string]*ccClocks
	newCalls callClock
}

func newCCProbe() *ccProbe { return &ccProbe{byName: map[string]*ccClocks{}} }

type ccTotals struct {
	all callClock // every Controller method
	ack callClock // OnAck only
}

// totals folds the clocks by controller name ("" = all of them).
func (p *ccProbe) totals() map[string]ccTotals {
	out := map[string]ccTotals{}
	for name, clocks := range p.byName {
		for _, key := range []string{"", name} {
			t := out[key]
			for _, m := range clocks {
				t.all.merge(m)
			}
			t.ack.merge(clocks[ccAck])
			out[key] = t
		}
	}
	return out
}

// wrap decorates cc; a nil probe returns cc untouched.
func (p *ccProbe) wrap(cc transport.Controller) transport.Controller {
	if p == nil {
		return cc
	}
	name := cc.Name()
	m := p.byName[name]
	if m == nil {
		m = new(ccClocks)
		p.byName[name] = m
	}
	return &tracedCC{inner: cc, name: name, m: m}
}

// factory decorates a campaign controller factory: construction is
// timed and every controller it returns is wrapped.
func (p *ccProbe) factory(f campaign.Factory) campaign.Factory {
	if p == nil {
		return f
	}
	return func(rng *rand.Rand, proto string) transport.Controller {
		t0 := time.Now()
		cc := f(rng, proto)
		p.newCalls.record(time.Since(t0))
		return p.wrap(cc)
	}
}

// tracedCC counts every call into a transport.Controller and times a
// sample of them, per method. It forwards the optional interfaces
// exactly as transport.Sender resolves them, so a decorated run is
// bit-identical to an undecorated one (the goldens are checked in
// traced runs too).
type tracedCC struct {
	inner transport.Controller
	name  string
	m     *ccClocks
}

func (t *tracedCC) Name() string { return t.name }

func (t *tracedCC) OnSend(now float64, pkt *transport.SentPacket) {
	if !t.m[ccSend].sample() {
		t.inner.OnSend(now, pkt)
		return
	}
	t0 := time.Now()
	t.inner.OnSend(now, pkt)
	t.m[ccSend].stop(t0)
}

func (t *tracedCC) OnAck(a transport.Ack) {
	if !t.m[ccAck].sample() {
		t.inner.OnAck(a)
		return
	}
	t0 := time.Now()
	t.inner.OnAck(a)
	t.m[ccAck].stop(t0)
}

func (t *tracedCC) OnLoss(l transport.Loss) {
	if !t.m[ccLoss].sample() {
		t.inner.OnLoss(l)
		return
	}
	t0 := time.Now()
	t.inner.OnLoss(l)
	t.m[ccLoss].stop(t0)
}

func (t *tracedCC) PacingRate() float64 {
	if !t.m[ccRate].sample() {
		return t.inner.PacingRate()
	}
	t0 := time.Now()
	r := t.inner.PacingRate()
	t.m[ccRate].stop(t0)
	return r
}

func (t *tracedCC) CWnd() float64 {
	if !t.m[ccWnd].sample() {
		return t.inner.CWnd()
	}
	t0 := time.Now()
	w := t.inner.CWnd()
	t.m[ccWnd].stop(t0)
	return w
}

func (t *tracedCC) SetTracer(tr trace.Tracer) {
	if ta, ok := t.inner.(transport.TraceAware); ok {
		ta.SetTracer(tr)
	}
}

func (t *tracedCC) OnAppPause(now float64) {
	if pa, ok := t.inner.(transport.PauseAware); ok {
		pa.OnAppPause(now)
	}
}

func (t *tracedCC) OnAppResume(now float64) {
	if pa, ok := t.inner.(transport.PauseAware); ok {
		pa.OnAppResume(now)
	}
}

func (t *tracedCC) OnOutage(now float64) {
	switch cc := t.inner.(type) {
	case transport.OutageAware:
		cc.OnOutage(now)
	case transport.PauseAware:
		cc.OnAppPause(now)
	}
}

func (t *tracedCC) OnRecovery(now, resumeRate float64) {
	switch cc := t.inner.(type) {
	case transport.OutageAware:
		cc.OnRecovery(now, resumeRate)
	case transport.PauseAware:
		cc.OnAppResume(now)
	}
}

// tracedClock counts (and times a sample of) the timers a Sender schedules (pacing
// wake-ups, ack deliveries, RTO re-arms). The link schedules its own
// two events per packet straight on the simulator and is not seen here.
type tracedClock struct {
	inner transport.Clock
	at    *callClock
}

func (c tracedClock) Now() float64 { return c.inner.Now() }

func (c tracedClock) At(t float64, fn func()) transport.Timer {
	if !c.at.sample() {
		return c.inner.At(t, fn)
	}
	t0 := time.Now()
	tm := c.inner.At(t, fn)
	c.at.stop(t0)
	return tm
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
