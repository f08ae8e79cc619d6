package exp

import (
	"os"
	"strings"
	"testing"
)

// TestFigureTable checks the one table every figure id lives in: names
// are unique and resolve to their own row, and DESIGN §3 indexes each
// row by the command that regenerates it.
func TestFigureTable(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	index := string(design)
	index = index[strings.Index(index, "## 3. Per-experiment index"):]
	index = index[:strings.Index(index, "## 4.")]

	seen := map[string]bool{}
	for _, f := range Figures {
		if f.Run == nil {
			t.Errorf("figure %s has no Run", f.ID)
		}
		for _, name := range append([]string{f.ID}, f.Aliases...) {
			if seen[name] || name == "all" || name == "" {
				t.Errorf("figure name %q is empty, reserved or used twice", name)
			}
			seen[name] = true
			if got, ok := FigureByName(name); !ok || got.ID != f.ID {
				t.Errorf("FigureByName(%q) = %q, %v; want row %s", name, got.ID, ok, f.ID)
			}
			if !strings.Contains(index, "`proteusbench -fig "+name+"`") {
				t.Errorf("DESIGN §3 has no `proteusbench -fig %s`", name)
			}
		}
	}
	if names := FigureNames(); len(names) != len(seen) {
		t.Errorf("FigureNames lists %d names, the table has %d", len(names), len(seen))
	}
	if _, ok := FigureByName("typo"); ok {
		t.Error("FigureByName resolved a name the table does not have")
	}
}

// Sections print in key order, not map order: two runs of one figure
// must be byte-identical.
func TestPrintTimelinesSectionOrder(t *testing.T) {
	m := map[string][]TimelineSeries{}
	for _, name := range []string{"proteus-s", "ledbat-25", "ledbat"} {
		m[name] = []TimelineSeries{{Name: name, Mbps: []float64{1, 2}}}
	}
	run := timelineFig("figx", "title", func(Options) map[string][]TimelineSeries { return m })
	for i := 0; i < 20; i++ { // map order varies per range statement
		blocks, err := run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for _, b := range blocks {
			out.WriteString(b.Render())
		}
		want := "# title\n" +
			"## ledbat\nledbat         1.0\nsteady-state Mbps: [2]\n\n" +
			"## ledbat-25\nledbat-25      1.0\nsteady-state Mbps: [2]\n\n" +
			"## proteus-s\nproteus-s      1.0\nsteady-state Mbps: [2]\n\n"
		if out.String() != want {
			t.Fatalf("run %d:\n%s\nwant:\n%s", i, out.String(), want)
		}
		if blocks[1].Name != "figx_ledbat" {
			t.Fatalf("CSV stem %q", blocks[1].Name)
		}
	}
}

// results/figoverload.txt is its first line's command and then exactly
// what that command prints: the overload scenario runs in virtual time,
// so the capture cannot go stale without this failing.
func TestOverloadFigureMatchesResults(t *testing.T) {
	want, err := os.ReadFile("../../results/figoverload.txt")
	if err != nil {
		t.Fatal(err)
	}
	cmd, body, _ := strings.Cut(string(want), "\n")
	if cmd != "# go run ./cmd/proteusbench -fig overload -seed 1" {
		t.Fatalf("first line %q is not the command", cmd)
	}
	f, _ := FigureByName("overload")
	blocks, err := f.Run(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, b := range blocks {
		got.WriteString(b.Render())
	}
	if got.String() != body {
		t.Fatalf("-fig overload -seed 1 prints\n%s\nresults/figoverload.txt has\n%s", got.String(), body)
	}
}
