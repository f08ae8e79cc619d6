package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"pccproteus/internal/exp"
)

// Sections print in key order, not map order: two runs of one figure
// must be byte-identical.
func TestPrintTimelinesSectionOrder(t *testing.T) {
	m := map[string][]exp.TimelineSeries{}
	for _, name := range []string{"proteus-s", "ledbat-25", "ledbat"} {
		m[name] = []exp.TimelineSeries{{Name: name, Mbps: []float64{1, 2}}}
	}
	heading := regexp.MustCompile(`(?m)^## (.*)$`)
	for run := 0; run < 20; run++ { // map order varies per range statement
		var buf bytes.Buffer
		printTimelines(&buf, "title", m)
		var got []string
		for _, h := range heading.FindAllStringSubmatch(buf.String(), -1) {
			got = append(got, h[1])
		}
		if s := strings.Join(got, ","); s != "ledbat,ledbat-25,proteus-s" {
			t.Fatalf("run %d: sections %s", run, s)
		}
	}
}
