package main

import (
	"strings"
	"testing"
)

func TestCheckModeFlags(t *testing.T) {
	cases := []struct {
		mode runMode
		set  []string
		bad  string // the flag the error names; "" for no error
	}{
		{lmMode, nil, ""},
		{lmMode, []string{"iters", "policy", "seed", "cpuprofile", "dist"}, ""},
		{lmMode, []string{"iters", "ep"}, "-ep"},
		{lmMode, []string{"engine"}, "-engine"},
		{distMode, []string{"transport", "ep", "dist-iters", "engine", "zero", "momentum"}, ""},
		{distMode, []string{"faults", "mtbf", "spares"}, ""}, // set to values that pick no fault run
		{distMode, []string{"iters"}, "-iters"},
		{distMode, []string{"mitigate"}, "-mitigate"},
		{distMode, []string{"ckpt-every"}, "-ckpt-every"},
		{distMode, []string{"async-ckpt"}, "-async-ckpt"},
		{ftMode, []string{"faults", "ckpt-every", "async-ckpt", "spares", "mitigate", "overlap"}, ""},
		{ftMode, []string{"faults", "engine"}, "-engine"},
		{ftMode, []string{"capacity"}, "-capacity"},
		{ftMode, []string{"smooth", "engine"}, "-smooth"}, // the first unread flag
	}
	for _, c := range cases {
		err := checkModeFlags(c.mode, c.set)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%v mode, %v: unexpected error %v", c.mode, c.set, err)
		case c.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), c.bad+" ")):
			t.Errorf("%v mode, %v: error %v, want one naming %s", c.mode, c.set, err, c.bad)
		}
	}
}
