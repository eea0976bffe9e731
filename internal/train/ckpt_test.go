package train

import (
	"fmt"
	"testing"
)

// ckptOp is one call on a CkptStream and its expected answer: the seconds
// Issue or Drain charges, or the step of the snapshot Abort returns.
type ckptOp struct {
	call string // "issue", "drain" or "abort"
	step int    // issue: the step of the snapshot written
	wall float64
	want float64
}

// TestCkptStream runs each case's calls on a stream whose writes take 4 s
// and whose durable base is the step-0 snapshot. Every time is a small
// binary fraction, so the charges are exact.
func TestCkptStream(t *testing.T) {
	const cost = 4
	cases := []struct {
		name string
		ops  []ckptOp
	}{
		{"idle issue charges nothing", []ckptOp{
			{"issue", 5, 10, 0},
		}},
		{"issue after the write landed charges nothing", []ckptOp{
			{"issue", 5, 10, 0},
			{"issue", 10, 14, 0},
		}},
		{"back-to-back issue charges the uncovered remainder", []ckptOp{
			{"issue", 5, 10, 0},
			{"issue", 10, 11, 3}, // the first write ends at 14
			{"drain", 0, 15, 3},  // the second starts at 14 and ends at 18
		}},
		{"issue then drain is a blocking write", []ckptOp{
			{"issue", 5, 10, 0},
			{"drain", 0, 10, cost},
			{"abort", 0, 10, 5},
		}},
		{"drain when idle charges nothing", []ckptOp{
			{"drain", 0, 3, 0},
			{"issue", 5, 10, 0},
			{"drain", 0, 20, 0},
		}},
		{"abort before the write ends keeps the previous snapshot", []ckptOp{
			{"issue", 5, 10, 0},
			{"abort", 0, 13.5, 0},
			{"abort", 0, 20, 0}, // the discarded write never lands
		}},
		{"abort at the write's end keeps the new snapshot", []ckptOp{
			{"issue", 5, 10, 0},
			{"abort", 0, 14, 5},
		}},
		{"abort after the write's end keeps the new snapshot", []ckptOp{
			{"issue", 5, 10, 0},
			{"abort", 0, 15, 5},
		}},
		{"abort mid-write after a back-to-back issue keeps the first", []ckptOp{
			{"issue", 5, 10, 0},
			{"issue", 10, 11, 3},
			{"abort", 0, 17, 5},
		}},
		{"abort at the end of the second write keeps it", []ckptOp{
			{"issue", 5, 10, 0},
			{"issue", 10, 11, 3},
			{"abort", 0, 18, 10},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs := NewCkptStream(cost, &Checkpoint{})
			for i, op := range c.ops {
				var got float64
				switch op.call {
				case "issue":
					got = cs.Issue(&Checkpoint{Step: op.step}, op.wall)
				case "drain":
					got = cs.Drain(op.wall)
				case "abort":
					got = float64(cs.Abort(op.wall).Step)
				default:
					panic(fmt.Sprint("unknown call ", op.call))
				}
				if got != op.want {
					t.Fatalf("op %d %s at %g: got %g, want %g", i, op.call, op.wall, got, op.want)
				}
			}
		})
	}
}
