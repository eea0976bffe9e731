package main

import (
	"slices"
	"strings"
	"testing"

	"xmoe/internal/bench"
)

func TestCheckOptionFlags(t *testing.T) {
	named := func(names ...string) []bench.Experiment {
		var out []bench.Experiment
		for _, n := range names {
			i := slices.IndexFunc(bench.Experiments, func(e bench.Experiment) bool { return e.Name == n })
			if i < 0 {
				t.Fatalf("no experiment %q", n)
			}
			out = append(out, bench.Experiments[i])
		}
		return out
	}
	cases := []struct {
		selected []bench.Experiment
		set      []string
		bad      string // the flag the error names; "" for no error
	}{
		{named("table1"), nil, ""},
		{named("table1"), []string{"experiment", "quick", "seed", "cpuprofile"}, ""},
		{named("table1"), []string{"engine"}, "-engine"},
		{named("table1"), []string{"chunks"}, "-chunks"},
		{named("fig12", "table1"), []string{"quick", "chunks", "engine"}, "-chunks"}, // the first unread flag
		{named("abl-overlap"), []string{"engine", "chunks"}, ""},
		{named("abl-overlap-bwd"), []string{"engine", "chunks"}, ""},
		{named("table1", "abl-overlap"), []string{"engine", "chunks"}, ""},
		{bench.Experiments, []string{"engine", "chunks"}, ""}, // -experiment all
	}
	for _, c := range cases {
		err := checkOptionFlags(c.selected, c.set)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%d experiments, %v: unexpected error %v", len(c.selected), c.set, err)
		case c.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), c.bad+" ")):
			t.Errorf("%d experiments, %v: error %v, want one naming %s", len(c.selected), c.set, err, c.bad)
		}
	}
}

func TestParseChunks(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
		bad  bool
	}{
		{"", nil, false},
		{"2", []int{2}, false},
		{"4, 8,1", []int{4, 8, 1}, false},
		{"0", nil, true},
		{"2,-1", nil, true},
		{"x", nil, true},
		{"99999", nil, true}, // past PipelineOpts.Check's maximum
	} {
		got, err := parseChunks(c.in)
		if (err != nil) != c.bad || !slices.Equal(got, c.want) {
			t.Errorf("parseChunks(%q) = %v, %v; want %v, error %v", c.in, got, err, c.want, c.bad)
		}
	}
}
