// Package fault builds seeded, fully deterministic fault plans for the
// simulated X-MoE training stack and turns them into the runtime hooks
// internal/simrt consumes. The paper targets Frontier, where multi-day
// MoE jobs routinely lose nodes, pick up stragglers, and cross flaky
// links; this package models those four failure classes without
// sacrificing the repository's reproducibility contract: the same plan
// (same seed, same spec string) produces bit-identical fault schedules,
// traces, and post-recovery weights on every run.
//
// Fault classes:
//
//   - crash: a rank dies at a training step or at an absolute simulated
//     clock; peers unwind with simrt.ErrPeerFailed (never a deadlock).
//   - straggler: a rank's compute durations are scaled by a multiplier
//     for a window of steps.
//   - flaky: a collective on one rank times out and retries with
//     exponential backoff; the whole retry cost is charged to the
//     simulated clock (and, through BSP, to every peer).
//   - link: a link class loses bandwidth by a derate factor for a
//     window of steps (netsim.Network.SetLinkDerate).
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// Kind enumerates the fault classes.
type Kind int

const (
	// Crash kills a rank (KindCrash events with Step >= 0 fire at that
	// step's first operation; events with AtClock > 0 fire at the first
	// operation boundary at or after that absolute simulated time).
	Crash Kind = iota
	// Straggler scales a rank's compute durations by Scale.
	Straggler
	// Flaky charges a timeout-and-retry delay to one rank's next
	// collective in each armed step.
	Flaky
	// Link derates the bandwidth of a link class.
	Link
)

// String returns the spec-syntax name of the kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Straggler:
		return "straggler"
	case Flaky:
		return "flaky"
	case Link:
		return "link"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one planned fault.
type Event struct {
	Kind Kind
	// Rank is the victim for Crash/Straggler/Flaky (ignored for Link).
	Rank int
	// Step is the training step at which the event arms; -1 for purely
	// clock-driven crashes.
	Step int
	// AtClock, for Crash, is the absolute simulated time of the failure
	// (seconds since training start). Zero means "at Step's first
	// operation".
	AtClock float64
	// ForSteps is the window length for Straggler/Flaky/Link events;
	// <= 0 means "until the end of the run".
	ForSteps int
	// Scale is the Straggler compute multiplier (> 1 slows the rank).
	Scale float64
	// Timeout, Retries, Backoff parameterise a Flaky collective: the
	// charged delay is Timeout * (1 + Backoff + Backoff^2 + ...) over
	// Retries attempts, i.e. the total time lost to timed-out tries.
	Timeout float64
	Retries int
	Backoff float64
	// Class and Derate parameterise a Link event.
	Class  topology.LinkClass
	Derate float64
}

// Delay returns the total simulated time a Flaky event charges: the sum
// of the timed-out attempts' timeouts under exponential backoff.
func (e Event) Delay() float64 {
	d, t := 0.0, e.Timeout
	for i := 0; i < e.Retries; i++ {
		d += t
		t *= e.Backoff
	}
	return d
}

// Plan is a deterministic fault schedule.
type Plan struct {
	Events []Event
	// Spares is the size of the hot-spare pool: idle ranks standing by
	// outside the training world. After a crash, recovery promotes up to
	// Spares of them into the dead ranks' slots, so the world can regrow
	// toward its original size instead of shrinking for the rest of the
	// run. Spec token: "spares:<n>". Spares are a pool, not named ranks —
	// promotion fills the lowest dead slots first.
	Spares int
}

// String renders the plan in the compact spec syntax ParsePlan accepts.
func (p Plan) String() string {
	parts := make([]string, 0, len(p.Events)+1)
	if p.Spares > 0 {
		parts = append(parts, fmt.Sprintf("spares:%d", p.Spares))
	}
	for _, e := range p.Events {
		switch e.Kind {
		case Crash:
			if e.Step < 0 {
				parts = append(parts, fmt.Sprintf("crash:r%d@t%g", e.Rank, e.AtClock))
			} else {
				parts = append(parts, fmt.Sprintf("crash:r%d@s%d", e.Rank, e.Step))
			}
		case Straggler:
			s := fmt.Sprintf("straggler:r%d@s%d:x%g", e.Rank, e.Step, e.Scale)
			if e.ForSteps > 0 {
				s += fmt.Sprintf(":n%d", e.ForSteps)
			}
			parts = append(parts, s)
		case Flaky:
			s := fmt.Sprintf("flaky:r%d@s%d:t%g", e.Rank, e.Step, e.Timeout)
			if e.Retries != 1 {
				s += fmt.Sprintf(":n%d", e.Retries)
			}
			if e.Backoff != 2 {
				s += fmt.Sprintf(":b%g", e.Backoff)
			}
			parts = append(parts, s)
		case Link:
			s := fmt.Sprintf("link:%s@s%d:x%g", linkName(e.Class), e.Step, e.Derate)
			if e.ForSteps != 1 {
				s += fmt.Sprintf(":n%d", e.ForSteps)
			}
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, ",")
}

// linkName maps a class to its spec token.
func linkName(c topology.LinkClass) string {
	switch c {
	case topology.LinkLocal:
		return "local"
	case topology.LinkGCDPair:
		return "pair"
	case topology.LinkIntraNode:
		return "intra"
	case topology.LinkInterNode:
		return "inter"
	case topology.LinkCrossRack:
		return "rack"
	}
	return "?"
}

// parseLink is the inverse of linkName.
func parseLink(s string) (topology.LinkClass, error) {
	switch s {
	case "local":
		return topology.LinkLocal, nil
	case "pair":
		return topology.LinkGCDPair, nil
	case "intra":
		return topology.LinkIntraNode, nil
	case "inter":
		return topology.LinkInterNode, nil
	case "rack":
		return topology.LinkCrossRack, nil
	}
	return 0, fmt.Errorf("fault: unknown link class %q (want local|pair|intra|inter|rack)", s)
}

// ParsePlan parses the compact fault-spec syntax used by the -faults CLI
// flag: comma-separated events, each
//
//	crash:r<rank>@s<step>            crash at a step's first operation
//	crash:r<rank>@t<seconds>         crash at an absolute simulated time
//	straggler:r<rank>@s<step>:x<mul>[:n<steps>]
//	flaky:r<rank>@s<step>:t<timeout>[:n<retries>][:b<backoff>]
//	link:<class>@s<step>:x<derate>[:n<steps>]   class: local|pair|intra|inter|rack
//
// plus the plan-level token
//
//	spares:<n>                       hot-spare pool size (see Plan.Spares)
//
// e.g. "crash:r2@s3,straggler:r0@s0:x2,link:inter@s2:x4:n3,spares:1".
func ParsePlan(spec string) (Plan, error) {
	var plan Plan
	if strings.TrimSpace(spec) == "" {
		return plan, nil
	}
	var clauses []string // plan.Events[i] was parsed from clauses[i]
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		fields := strings.Split(tok, ":")
		if len(fields) == 2 && fields[0] == "spares" {
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > math.MaxInt-plan.Spares {
				return Plan{}, fmt.Errorf("fault: bad spare count %q (want spares:<n>, n >= 0)", tok)
			}
			plan.Spares += n
			continue
		}
		if len(fields) < 2 {
			return Plan{}, fmt.Errorf("fault: bad event %q (want kind:target@when...)", tok)
		}
		kind, rest := fields[0], fields[1]
		at := strings.SplitN(rest, "@", 2)
		if len(at) != 2 {
			return Plan{}, fmt.Errorf("fault: event %q missing @when", tok)
		}
		e := Event{ForSteps: 1}
		// Target: rank (rN) or link class.
		if kind == "link" {
			class, err := parseLink(at[0])
			if err != nil {
				return Plan{}, err
			}
			e.Class = class
		} else {
			if !strings.HasPrefix(at[0], "r") {
				return Plan{}, fmt.Errorf("fault: event %q target must be r<rank>", tok)
			}
			r, err := strconv.Atoi(at[0][1:])
			if err != nil || r < 0 {
				return Plan{}, fmt.Errorf("fault: event %q has bad rank %q", tok, at[0])
			}
			e.Rank = r
		}
		// When: s<step> or (crash only) t<seconds>.
		switch {
		case strings.HasPrefix(at[1], "s"):
			st, err := strconv.Atoi(at[1][1:])
			if err != nil || st < 0 {
				return Plan{}, fmt.Errorf("fault: event %q has bad step %q", tok, at[1])
			}
			e.Step = st
		case strings.HasPrefix(at[1], "t") && kind == "crash":
			sec, err := parseFinite(at[1][1:])
			if err != nil || sec < 0 {
				return Plan{}, fmt.Errorf("fault: event %q has bad time %q", tok, at[1])
			}
			e.Step, e.AtClock = -1, sec
		default:
			return Plan{}, fmt.Errorf("fault: event %q has bad @when %q", tok, at[1])
		}
		// Kind-specific options.
		opts := fields[2:]
		switch kind {
		case "crash":
			e.Kind = Crash
			if len(opts) != 0 {
				return Plan{}, fmt.Errorf("fault: crash event %q takes no options", tok)
			}
		case "straggler":
			e.Kind, e.Scale, e.ForSteps = Straggler, 0, 0
			for _, o := range opts {
				switch {
				case strings.HasPrefix(o, "x"):
					v, err := parseFinite(o[1:])
					if err != nil || v <= 0 {
						return Plan{}, fmt.Errorf("fault: bad scale in %q", tok)
					}
					e.Scale = v
				case strings.HasPrefix(o, "n"):
					v, err := strconv.Atoi(o[1:])
					if err != nil || v < 1 {
						return Plan{}, fmt.Errorf("fault: bad window in %q", tok)
					}
					e.ForSteps = v
				default:
					return Plan{}, fmt.Errorf("fault: unknown option %q in %q", o, tok)
				}
			}
			if e.Scale == 0 {
				return Plan{}, fmt.Errorf("fault: straggler %q needs x<scale>", tok)
			}
		case "flaky":
			e.Kind, e.Retries, e.Backoff = Flaky, 1, 2
			for _, o := range opts {
				switch {
				case strings.HasPrefix(o, "t"):
					v, err := parseFinite(o[1:])
					if err != nil || v <= 0 {
						return Plan{}, fmt.Errorf("fault: bad timeout in %q", tok)
					}
					e.Timeout = v
				case strings.HasPrefix(o, "n"):
					v, err := strconv.Atoi(o[1:])
					if err != nil || v < 1 {
						return Plan{}, fmt.Errorf("fault: bad retries in %q", tok)
					}
					e.Retries = v
				case strings.HasPrefix(o, "b"):
					v, err := parseFinite(o[1:])
					if err != nil || v <= 0 {
						return Plan{}, fmt.Errorf("fault: bad backoff in %q", tok)
					}
					e.Backoff = v
				default:
					return Plan{}, fmt.Errorf("fault: unknown option %q in %q", o, tok)
				}
			}
			if e.Timeout == 0 {
				return Plan{}, fmt.Errorf("fault: flaky %q needs t<timeout>", tok)
			}
		case "link":
			e.Kind = Link
			for _, o := range opts {
				switch {
				case strings.HasPrefix(o, "x"):
					v, err := parseFinite(o[1:])
					if err != nil || v <= 1 {
						return Plan{}, fmt.Errorf("fault: bad derate in %q (want > 1)", tok)
					}
					e.Derate = v
				case strings.HasPrefix(o, "n"):
					v, err := strconv.Atoi(o[1:])
					if err != nil || v < 1 {
						return Plan{}, fmt.Errorf("fault: bad window in %q", tok)
					}
					e.ForSteps = v
				default:
					return Plan{}, fmt.Errorf("fault: unknown option %q in %q", o, tok)
				}
			}
			if e.Derate == 0 {
				return Plan{}, fmt.Errorf("fault: link %q needs x<derate>", tok)
			}
		default:
			return Plan{}, fmt.Errorf("fault: unknown kind %q in %q", kind, tok)
		}
		plan.Events = append(plan.Events, e)
		clauses = append(clauses, tok)
	}
	if err := finiteDerates(plan, clauses); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// finiteDerates rejects a plan whose overlapping link events on one class
// compound to a non-finite derate (x1e200 twice is +Inf, which an event
// engine cannot drain a flow at). Every derate exceeds 1, so a class's
// product is largest at some event's start step: checking those steps
// checks every step.
func finiteDerates(plan Plan, clauses []string) error {
	inj := NewInjector(plan, 0)
	for _, e := range plan.Events {
		if e.Kind != Link || !math.IsInf(inj.LinkDerates(e.Step)[e.Class], 0) {
			continue
		}
		var over []string
		for i, o := range plan.Events {
			if o.Kind == Link && o.Class == e.Class && o.active(e.Step) {
				over = append(over, clauses[i])
			}
		}
		return fmt.Errorf("fault: link events %s compound to a non-finite %s derate at step %d",
			strings.Join(over, ","), linkName(e.Class), e.Step)
	}
	return nil
}

// parseFinite parses a float option value, rejecting NaN and ±Inf: they
// pass the range checks (NaN fails every comparison) and then silently
// disable the fault they parameterise.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("fault: %q is not finite", s)
	}
	return v, err
}

// PlanCrashes samples a deterministic crash schedule over a simulated
// horizon: failures arrive as a Poisson process with the given mean time
// between failures, each killing a uniformly chosen rank. The same
// (seed, world, horizon, mtbf) always produces the same schedule. Events
// are clock-driven (Step = -1) and sorted by time.
func PlanCrashes(seed uint64, world int, horizon, mtbf float64) Plan {
	var plan Plan
	if mtbf <= 0 || world < 1 || horizon <= 0 {
		return plan
	}
	rng := tensor.NewRNG(seed ^ 0xfa017a11)
	t := 0.0
	for {
		// Exponential inter-arrival via inverse CDF; 1-u keeps the
		// argument of log strictly positive.
		t += -mtbf * math.Log(1-rng.Float64())
		if t >= horizon {
			return plan
		}
		plan.Events = append(plan.Events, Event{
			Kind:    Crash,
			Rank:    rng.Intn(world),
			Step:    -1,
			AtClock: t,
		})
	}
}

// CrashTimes returns the absolute simulated times of the plan's
// clock-driven crashes, sorted ascending.
func (p Plan) CrashTimes() []float64 {
	var ts []float64
	for _, e := range p.Events {
		if e.Kind == Crash && e.AtClock > 0 {
			ts = append(ts, e.AtClock)
		}
	}
	sort.Float64s(ts)
	return ts
}

// Goodput is the fraction of wall-clock time spent on useful, retained
// training work: steps that survived into the final model divided by
// everything — lost (rolled-back) steps, checkpoint writes, recovery
// stalls included. 1 means no time was wasted.
func Goodput(useful, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	return useful / wall
}

// YoungDaly returns the Young/Daly first-order optimum checkpoint
// interval sqrt(2 * delta * mtbf) for a per-checkpoint cost delta: the
// interval that balances checkpoint overhead against expected rework
// after a failure.
func YoungDaly(ckptCost, mtbf float64) float64 {
	if ckptCost <= 0 || mtbf <= 0 {
		return 0
	}
	return math.Sqrt(2 * ckptCost * mtbf)
}

// Injector adapts a Plan to the simrt.Injector runtime hook. Arm is
// called once per training step, single-threaded, before Cluster.Run;
// during the Run each rank goroutine reads only its own per-rank slots,
// so the injector is race-free by construction (disjoint memory, no
// locks on the hot path).
type Injector struct {
	plan  Plan
	world int

	scale      []float64 // straggler multiplier per rank (1 = healthy)
	flakyDelay []float64 // pending one-shot collective delay per rank
	crashErr   []error   // armed crash per rank (nil = none)
	crashAt    []float64 // within-step clock threshold for armed crashes
	crashed    []bool    // set by the victim's goroutine when it fires
}

// NewInjector builds an injector for a world of the given size. Ranks in
// the plan outside [0, world) are ignored (a shrunk post-recovery world
// simply outlives events aimed at dead ranks).
func NewInjector(plan Plan, world int) *Injector {
	return &Injector{
		plan:       plan,
		world:      world,
		scale:      make([]float64, world),
		flakyDelay: make([]float64, world),
		crashErr:   make([]error, world),
		crashAt:    make([]float64, world),
		crashed:    make([]bool, world),
	}
}

// active reports whether a windowed event covers the given step.
func (e Event) active(step int) bool {
	if e.Step < 0 || step < e.Step {
		return false
	}
	return e.ForSteps <= 0 || step < e.Step+e.ForSteps
}

// Arm prepares the injector for one training step: step is the global
// step index and elapsed the simulated seconds accumulated before it
// (each Cluster.Run starts rank clocks at zero, so clock-driven crashes
// are rebased into the step's local time frame). Must be called with no
// Run in flight.
func (inj *Injector) Arm(step int, elapsed float64) {
	for r := 0; r < inj.world; r++ {
		inj.scale[r] = 1
		inj.flakyDelay[r] = 0
		inj.crashErr[r] = nil
		inj.crashAt[r] = 0
	}
	for _, e := range inj.plan.Events {
		switch e.Kind {
		case Straggler:
			if e.active(step) && e.Rank < inj.world {
				inj.scale[e.Rank] *= e.Scale
			}
		case Flaky:
			if e.active(step) && e.Rank < inj.world {
				inj.flakyDelay[e.Rank] += e.Delay()
			}
		case Crash:
			if e.Rank >= inj.world || inj.crashed[e.Rank] {
				continue
			}
			if e.Step == step && e.AtClock == 0 {
				inj.crashErr[e.Rank] = fmt.Errorf("fault: planned crash of rank %d at step %d: %w",
					e.Rank, step, simrt.ErrRankCrashed)
			} else if e.Step < 0 && e.AtClock > elapsed {
				// Clock-driven: arm with the within-step threshold. It
				// fires only if this step actually reaches it; otherwise
				// the next Arm re-arms it with a smaller offset.
				if inj.crashErr[e.Rank] == nil || e.AtClock-elapsed < inj.crashAt[e.Rank] {
					inj.crashErr[e.Rank] = fmt.Errorf("fault: planned crash of rank %d at t=%.6fs: %w",
						e.Rank, e.AtClock, simrt.ErrRankCrashed)
					inj.crashAt[e.Rank] = e.AtClock - elapsed
				}
			} else if e.Step < 0 && e.AtClock <= elapsed {
				// Overdue (the previous step ended past the crash time
				// without an operation boundary hitting it): fire at this
				// step's first operation.
				inj.crashErr[e.Rank] = fmt.Errorf("fault: planned crash of rank %d at t=%.6fs: %w",
					e.Rank, e.AtClock, simrt.ErrRankCrashed)
				inj.crashAt[e.Rank] = 0
			}
		}
	}
}

// LinkDerates returns the bandwidth derates active at the given step,
// ready to pass to Cluster.SetLinkDerate (nil when all links are
// healthy). Overlapping events on one class compound multiplicatively.
func (inj *Injector) LinkDerates(step int) map[topology.LinkClass]float64 {
	var out map[topology.LinkClass]float64
	for _, e := range inj.plan.Events {
		if e.Kind != Link || !e.active(step) {
			continue
		}
		if out == nil {
			out = map[topology.LinkClass]float64{}
		}
		if cur, ok := out[e.Class]; ok {
			out[e.Class] = cur * e.Derate
		} else {
			out[e.Class] = e.Derate
		}
	}
	return out
}

// ComputeScale implements simrt.Injector.
func (inj *Injector) ComputeScale(rank int) float64 {
	if rank >= inj.world {
		return 1
	}
	return inj.scale[rank]
}

// CollectiveDelay implements simrt.Injector: the armed flaky delay is
// charged to the rank's first matching collective of the step.
func (inj *Injector) CollectiveDelay(rank int, name string, clock float64) float64 {
	if rank >= inj.world || inj.flakyDelay[rank] == 0 {
		return 0
	}
	d := inj.flakyDelay[rank]
	inj.flakyDelay[rank] = 0
	return d
}

// CrashError implements simrt.Injector.
func (inj *Injector) CrashError(rank int, clock float64) error {
	if rank >= inj.world {
		return nil
	}
	err := inj.crashErr[rank]
	if err == nil || clock < inj.crashAt[rank] {
		return nil
	}
	inj.crashed[rank] = true
	return err
}
