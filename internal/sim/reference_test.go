package sim

import (
	"reflect"
	"testing"
)

// refQueue is the engine's specification as the plainest possible model: a
// slice searched for its (when, seq) minimum, with the same demand/daemon
// and RunUntil rules as Engine.
type refQueue struct {
	now    Cycle
	seq    uint64
	demand int
	evs    []refEvent
	fire   func(id uint64)
}

type refEvent struct {
	when   Cycle
	seq    uint64
	id     uint64
	daemon bool
}

func (q *refQueue) push(when Cycle, id uint64, daemon bool) {
	q.seq++
	q.evs = append(q.evs, refEvent{when, q.seq, id, daemon})
	if !daemon {
		q.demand++
	}
}

// min returns the index of the earliest event in (when, seq) order.
func (q *refQueue) min() int {
	m := 0
	for i, ev := range q.evs {
		if ev.when < q.evs[m].when || ev.when == q.evs[m].when && ev.seq < q.evs[m].seq {
			m = i
		}
	}
	return m
}

// next mirrors Engine.NextEventTime.
func (q *refQueue) next() (Cycle, bool) {
	if len(q.evs) == 0 {
		return 0, false
	}
	return q.evs[q.min()].when, true
}

func (q *refQueue) dispatch(i int) {
	ev := q.evs[i]
	q.evs = append(q.evs[:i], q.evs[i+1:]...)
	if !ev.daemon {
		q.demand--
	}
	q.now = ev.when
	q.fire(ev.id)
}

func (q *refQueue) run() {
	for len(q.evs) > 0 && q.demand > 0 {
		q.dispatch(q.min())
	}
}

func (q *refQueue) runUntil(limit Cycle) {
	for len(q.evs) > 0 {
		i := q.min()
		if q.evs[i].when > limit {
			break
		}
		q.dispatch(i)
	}
	if q.now < limit {
		q.now = limit
	}
}

// The five scheduling calls the stream draws from.
const (
	apiSchedule = iota
	apiScheduleFn
	apiAt
	apiAtFn
	apiScheduleDaemon
	numAPIs
)

// diffModel is one side of the differential run: the real engine or the
// reference queue, driven by identical calls and recording its firings.
type diffModel struct {
	eng    *Engine // nil on the reference side
	ref    *refQueue
	nextID uint64
	fired  []firedRec
}

type firedRec struct {
	ID   uint64
	When Cycle
}

func (m *diffModel) now() Cycle {
	if m.eng != nil {
		return m.eng.Now()
	}
	return m.ref.now
}

func (m *diffModel) pending() int {
	if m.eng != nil {
		return m.eng.size
	}
	return len(m.ref.evs)
}

// diffDispatch is the typed-path handler: arg is the model, v the event id.
func diffDispatch(arg any, v uint64) { arg.(*diffModel).fire(v) }

// put schedules a new event through the given API after delay cycles. The
// event's id carries its generation in the low bits, so children stop
// after a few generations.
func (m *diffModel) put(api int, delay Cycle, gen uint64) {
	m.nextID++
	id := m.nextID<<3 | gen
	daemon := api == apiScheduleDaemon
	if m.eng == nil {
		m.ref.push(m.ref.now+delay, id, daemon)
		return
	}
	e := m.eng
	fn := func() { m.fire(id) }
	switch api {
	case apiSchedule:
		e.Schedule(delay, fn)
	case apiScheduleFn:
		e.ScheduleFn(delay, diffDispatch, m, id)
	case apiAt:
		e.At(e.Now()+delay, fn)
	case apiAtFn:
		e.AtFn(e.Now()+delay, diffDispatch, m, id)
	case apiScheduleDaemon:
		e.ScheduleDaemon(delay, fn)
	}
}

// fire records the event and, as a pure function of its id, schedules
// children.
func (m *diffModel) fire(id uint64) {
	m.fired = append(m.fired, firedRec{id, m.now()})
	h := id*0x9e3779b97f4a7c15 | 1
	r := xorshift(&h)
	gen := id & 7
	if gen >= 4 {
		return
	}
	for k := r % 3; k > 0; k-- {
		r = xorshift(&h)
		m.put(int(r%numAPIs), diffDelay(r>>8), gen+1)
	}
}

// diffDelay maps a random word onto the delays that exercise every path:
// same-cycle, near, the window's last bucket, the first overflow cycle and
// far overflow.
func diffDelay(r uint64) Cycle {
	switch r % 8 {
	case 0, 1:
		return 0
	case 2, 3, 4:
		return Cycle(1 + (r>>3)%40)
	case 5:
		return ringSize - 1
	case 6:
		return ringSize
	default:
		return 3 * ringSize
	}
}

// TestEngineMatchesReferenceQueue drives the engine and the reference
// queue with one seeded stream of schedules, runs, bounded runs and idle
// gaps, and requires the same (id, cycle) firing sequence, clock,
// queue depth and next event time after every phase.
func TestEngineMatchesReferenceQueue(t *testing.T) {
	for _, seed := range []uint64{1, 0x5eed, 0xfeedface} {
		eng := &diffModel{eng: NewEngine()}
		ref := &diffModel{ref: &refQueue{}}
		ref.ref.fire = ref.fire
		rng := seed
		limitOffsets := [...]Cycle{0, 7, ringSize - 1, ringSize, ringSize + 1, 3 * ringSize, 10 * ringSize}
		for phase := 0; phase < 400; phase++ {
			// Some phases schedule nothing, so a drained queue sits idle
			// through the next bounded run and later pushes re-anchor.
			roots := xorshift(&rng) % 12
			if phase%9 == 0 {
				roots = 0
			}
			for i := uint64(0); i < roots; i++ {
				r := xorshift(&rng)
				api, delay := int(r%numAPIs), diffDelay(r>>8)
				eng.put(api, delay, 0)
				ref.put(api, delay, 0)
			}
			r := xorshift(&rng)
			if r%3 == 0 {
				eng.eng.Run()
				ref.ref.run()
			} else {
				limit := eng.now() + limitOffsets[(r>>4)%uint64(len(limitOffsets))]
				eng.eng.RunUntil(limit)
				ref.ref.runUntil(limit)
			}
			if !reflect.DeepEqual(eng.fired, ref.fired) {
				i := firstDiff(eng.fired, ref.fired)
				t.Fatalf("seed %#x phase %d: firing sequences diverge at %d\n engine %v\n ref    %v",
					seed, phase, i, from(eng.fired, i), from(ref.fired, i))
			}
			if eng.now() != ref.now() || eng.pending() != ref.pending() {
				t.Fatalf("seed %#x phase %d: engine now=%d pending=%d, reference now=%d pending=%d",
					seed, phase, eng.now(), eng.pending(), ref.now(), ref.pending())
			}
			ec, eok := eng.eng.NextEventTime()
			rc, rok := ref.ref.next()
			if ec != rc || eok != rok {
				t.Fatalf("seed %#x phase %d: engine next event (%d, %v), reference (%d, %v)",
					seed, phase, ec, eok, rc, rok)
			}
		}
		if len(eng.fired) < 1000 {
			t.Fatalf("seed %#x: only %d firings, the stream is too thin", seed, len(eng.fired))
		}
	}
}

func firstDiff(a, b []firedRec) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// from returns a few records starting at i, enough to show a divergence.
func from(r []firedRec, i int) []firedRec {
	return r[i:min(i+6, len(r))]
}
