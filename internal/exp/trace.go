package exp

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"pccproteus/internal/sim"
	"pccproteus/internal/trace"
)

// Tracing configures flight-recorder capture for the experiment
// harness. When attached (via Options.Trace), every simulation a figure
// runs records trace events and writes one JSONL file per flow into
// Dir, named <scenario>_flow<N>_<proto>.jsonl (flow 0 is the link's own
// ring, holding queue-depth samples). A nil *Tracing disables capture
// with no overhead: the simulations never see a recorder.
//
// Tracing is safe for concurrent use by figures running in parallel;
// write errors are collected rather than aborting the runs and are
// reported by Err.
type Tracing struct {
	Dir         string     // output directory (created on demand)
	Mask        trace.Mask // event kinds to record; 0 = all
	FlowCap     int        // per-flow ring capacity; 0 = trace.DefaultFlowCap
	SampleEvery int        // stride for high-rate kinds; 0/1 = every event
	CSV         bool       // also write a .csv beside each .jsonl

	mu   sync.Mutex
	seen map[string]int
	errs []error
}

func (tc *Tracing) enabled() bool { return tc != nil && tc.Dir != "" }

// attach hooks a fresh recorder onto s; with tracing disabled it
// returns nil and the simulation never sees one.
func (tc *Tracing) attach(s *sim.Sim) *trace.Recorder {
	if !tc.enabled() {
		return nil
	}
	mask := tc.Mask
	if mask == 0 {
		mask = trace.AllEvents
	}
	rec := trace.NewRecorder(trace.Options{Mask: mask, FlowCap: tc.FlowCap, SampleEvery: tc.SampleEvery})
	s.SetTrace(rec)
	return rec
}

// flush writes the per-flow files of a finished run; flows name them.
func (tc *Tracing) flush(rec *trace.Recorder, scenario string, flows []FlowResult) {
	if rec == nil {
		return
	}
	base := tc.unique(sanitizeName(scenario))
	if err := os.MkdirAll(tc.Dir, 0o755); err != nil {
		tc.fail(err)
		return
	}
	for _, flow := range rec.Flows() {
		name := "link"
		if flow > 0 {
			if int(flow) <= len(flows) {
				name = sanitizeName(flows[flow-1].Proto)
			} else {
				// Dynamically spawned cross traffic (e.g. Fig 2's short
				// CUBIC flows) has no spec entry.
				name = fmt.Sprintf("x%d", flow)
			}
		}
		stem := fmt.Sprintf("%s_flow%d_%s", base, flow, name)
		evs := rec.Events(flow)
		if err := tc.writeFile(stem+".jsonl", evs, trace.WriteJSONL); err != nil {
			tc.fail(fmt.Errorf("trace %s: %w", stem, err))
			continue
		}
		if tc.CSV {
			if err := tc.writeFile(stem+".csv", evs, trace.WriteCSV); err != nil {
				tc.fail(fmt.Errorf("trace %s: %w", stem, err))
			}
		}
	}
}

func (tc *Tracing) writeFile(name string, evs []trace.Event, write func(w io.Writer, evs []trace.Event) error) error {
	f, err := os.Create(filepath.Join(tc.Dir, name))
	if err != nil {
		return err
	}
	if err := write(f, evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unique disambiguates repeated scenario labels (repeat trials of the
// same configuration) by suffixing _run2, _run3, ...
func (tc *Tracing) unique(base string) string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.seen == nil {
		tc.seen = make(map[string]int)
	}
	tc.seen[base]++
	if n := tc.seen[base]; n > 1 {
		return fmt.Sprintf("%s_run%d", base, n)
	}
	return base
}

func (tc *Tracing) fail(err error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.errs = append(tc.errs, err)
}

// Err returns the accumulated write errors, or nil. Nil-receiver safe.
func (tc *Tracing) Err() error {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return errors.Join(tc.errs...)
}

// sanitizeName maps a scenario or protocol label to a filesystem-safe
// token: anything outside [A-Za-z0-9._-] becomes '-' ("fixed:20" →
// "fixed-20").
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}
