package main

import (
	"slices"
	"strings"
	"testing"

	"pccproteus/internal/exp"
)

// A bad -fig name is an error before any figure runs, names every valid
// one, and "all" is exactly the rows the table marks.
func TestFigureIDs(t *testing.T) {
	if _, err := figureIDs("3,typo"); err == nil {
		t.Fatal("-fig 3,typo accepted")
	} else {
		for _, want := range append(exp.FigureNames(), `"typo"`, "all") {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %s", err, want)
			}
		}
	}
	ids, err := figureIDs(" 7, 20,overload")
	if err != nil || strings.Join(ids, ",") != "7,20,overload" {
		t.Fatalf("figureIDs = %v, %v", ids, err)
	}
	all, err := figureIDs("all")
	if err != nil {
		t.Fatal(err)
	}
	var marked []string
	for _, f := range exp.Figures {
		if f.All {
			marked = append(marked, f.ID)
		}
	}
	if strings.Join(all, ",") != strings.Join(marked, ",") || len(all) == 0 {
		t.Fatalf("all = %v, table marks %v", all, marked)
	}
	// lte is the one row all leaves out; overload, in virtual time since
	// it runs on a SimNet, is in.
	if slices.Contains(all, "lte") || !slices.Contains(all, "overload") {
		t.Errorf("all = %v: want overload and not lte", all)
	}
}
