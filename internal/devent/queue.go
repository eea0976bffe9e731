package devent

// eventKind discriminates the scheduled event types of the simulator.
type eventKind uint8

const (
	// evActivate fires when a granted flow finishes its latency phase and
	// starts moving bytes.
	evActivate eventKind = iota
	// evFinish fires when an active flow drains its last byte. A
	// fair-share rate change moves the flow's finish: scheduling it again
	// replaces the pending event (under a fresh sequence number) instead
	// of leaving a stale one to be dropped on pop.
	evFinish
)

type event struct {
	t    float64
	seq  uint64
	flow int32
	kind eventKind
}

// eventQueue is a binary min-heap ordered by (time, sequence): events
// scheduled for the same instant fire in scheduling order, which is what
// makes the simulation deterministic — no map iteration or goroutine
// interleaving ever decides a tie. A flow has at most one pending event
// (its activation, then its finish), so the heap is indexed by flow and
// never holds more entries than there are flows in flight.
type eventQueue struct {
	h   []event
	pos []int32 // flow -> 1 + index in h of its pending event; 0 = none
}

// reset empties the queue and sizes it for flows 0..n-1.
func (q *eventQueue) reset(n int) {
	q.h = q.h[:0]
	q.pos = resize(q.pos, n)
	clear(q.pos)
}

func (q *eventQueue) len() int { return len(q.h) }

func less(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// place stores e at heap index i.
func (q *eventQueue) place(i int, e event) {
	q.h[i] = e
	q.pos[e.flow] = int32(i + 1)
}

// up sifts the event at index i towards the root and returns where it
// settled.
func (q *eventQueue) up(i int) int {
	e := q.h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !less(&e, &q.h[p]) {
			break
		}
		q.place(i, q.h[p])
		i = p
	}
	q.place(i, e)
	return i
}

// down sifts the event at index i towards the leaves.
func (q *eventQueue) down(i int) {
	e := q.h[i]
	for {
		c := 2*i + 1
		if c >= len(q.h) {
			break
		}
		if c+1 < len(q.h) && less(&q.h[c+1], &q.h[c]) {
			c++
		}
		if !less(&q.h[c], &e) {
			break
		}
		q.place(i, q.h[c])
		i = c
	}
	q.place(i, e)
}

// schedule queues e, replacing the pending event of e.flow if it has one.
func (q *eventQueue) schedule(e event) {
	i := int(q.pos[e.flow]) - 1
	if i < 0 {
		i = len(q.h)
		q.h = append(q.h, e)
	} else {
		q.h[i] = e
	}
	if q.up(i) == i {
		q.down(i)
	}
}

func (q *eventQueue) pop() event {
	top := q.h[0]
	q.pos[top.flow] = 0
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	if last > 0 {
		q.down(0)
	}
	return top
}
