package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

func goldenKey(workload, part string, seed int64) string {
	return fmt.Sprintf("%s/%s/%s/seed=%d", runtime.GOARCH, workload, part, seed)
}

// Goldens pin what the virtual-time workloads compute: the simulator
// must keep reproducing the same bytes while it gets faster. Keys are
// "<goarch>/<workload>/<part>/seed=<n>" (float arithmetic is bit-stable
// per architecture only: fused multiply-add differs between amd64 and
// arm64); values are SHA-256 digests (campaign aggregate JSON) or
// canonical result strings (per-flow acked bytes and link counters).
// Goldens exist only at scale 1 and only for the seeds recorded with
// -update-golden; any other run still checks that every repetition
// reproduces the first one exactly.
type goldenStore struct {
	path    string
	entries map[string]string
	dirty   bool
}

func loadGoldens(path string) (*goldenStore, error) {
	g := &goldenStore{path: path, entries: map[string]string{}}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &g.entries); err != nil {
		return nil, fmt.Errorf("goldens %s: %w", path, err)
	}
	return g, nil
}

// verdict of one golden lookup.
const (
	goldenMatch   = "match"
	goldenMissing = "no golden for this seed"
	goldenDiffers = "MISMATCH"
)

func (g *goldenStore) check(key, got string, update bool) string {
	want, ok := g.entries[key]
	switch {
	case update:
		if want != got {
			g.entries[key] = got
			g.dirty = true
		}
		return goldenMatch
	case !ok:
		return goldenMissing
	case want == got:
		return goldenMatch
	}
	return goldenDiffers
}

func (g *goldenStore) save() error {
	if !g.dirty {
		return nil
	}
	b, err := json.MarshalIndent(g.entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(g.path, append(b, '\n'), 0o644)
}
