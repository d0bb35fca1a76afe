package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) }) // same cycle: FIFO by seq
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
}

func TestZeroDelayRunsSameCycle(t *testing.T) {
	e := NewEngine()
	var at Cycle
	e.Schedule(7, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run()
	if at != 7 {
		t.Fatalf("zero-delay event ran at %d, want 7", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	for _, d := range []Cycle{1, 2, 3, 10, 20} {
		e.Schedule(d, func() { fired++ })
	}
	e.RunUntil(5)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", e.Now())
	}
	if e.size != 2 {
		t.Fatalf("%d events queued, want 2", e.size)
	}
	e.Run()
	if fired != 5 || e.Now() != 20 {
		t.Fatalf("after Run: fired=%d now=%d", fired, e.Now())
	}
}

func TestAtPanicsOnPast(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

// Property: events always fire in non-decreasing time order, and equal-time
// events fire in scheduling order, for any set of delays.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		type firing struct {
			time Cycle
			idx  int
		}
		var fired []firing
		for i, d := range delays {
			i, d := i, Cycle(d)
			e.Schedule(d, func() { fired = append(fired, firing{e.Now(), i}) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].time < fired[i-1].time {
				return false
			}
			if fired[i].time == fired[i-1].time && fired[i].idx < fired[i-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonEventsDoNotKeepRunAlive(t *testing.T) {
	e := NewEngine()
	daemonFires := 0
	var tick func()
	tick = func() {
		daemonFires++
		e.ScheduleDaemon(10, tick)
	}
	e.ScheduleDaemon(10, tick)
	e.Schedule(35, func() {})
	e.Run() // must terminate despite the perpetual daemon
	if e.Now() != 35 {
		t.Fatalf("Run ended at %d, want 35", e.Now())
	}
	if daemonFires != 3 {
		t.Fatalf("daemon fired %d times before the last demand event, want 3", daemonFires)
	}
	// RunUntil drives daemons past the demand horizon.
	e.RunUntil(100)
	if daemonFires < 9 {
		t.Fatalf("daemon fired %d times by cycle 100", daemonFires)
	}
}
