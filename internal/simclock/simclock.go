// Package simclock provides the virtual time base and discrete-event engine
// on which every simulated subsystem (scheduler, virtual memory, network)
// runs. Time is represented as integer microseconds so that event ordering is
// exact and runs are deterministic for a given seed.
package simclock

import "fmt"

// Time is a point in virtual time, in microseconds since simulation start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts the time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// Milliseconds converts the time to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return fmt.Sprintf("%.3fms", float64(t)/1e3) }

// Seconds converts the duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e6 }

// Milliseconds converts the duration to floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / 1e3 }

func (d Duration) String() string { return fmt.Sprintf("%.3fms", float64(d)/1e3) }

// Millis builds a Duration from a floating-point number of milliseconds.
func Millis(ms float64) Duration { return Duration(ms * 1e3) }

// Micros builds a Duration from an integer number of microseconds.
func Micros(us int64) Duration { return Duration(us) }

// Event is a scheduled callback. Events fire in timestamp order; ties are
// broken by insertion order so that runs are fully deterministic.
//
// An *Event handle is valid only while the event is pending: once it fires
// or is cancelled, the engine may recycle the struct for a later schedule,
// so callers must drop (or overwrite) their reference no later than the
// callback returning. Holding a handle across its own firing and then
// calling Cancel or Scheduled on it observes the recycled event.
type Event struct {
	when Time
	seq  uint64
	fn   func(now Time)
	// fnArgs with (a, b) is the payload-carrying callback form (see
	// AtArgs); exactly one of fn and fnArgs is set.
	fnArgs func(now Time, a, b int)
	a, b   int
	idx    int // queue position marker, -1 when not queued
}

// When reports the time at which the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// Scheduled reports whether the event is still pending in its engine.
func (e *Event) Scheduled() bool { return e != nil && e.idx >= 0 }

// eventBefore is the global dispatch order: timestamp, then insertion
// sequence for same-tick ties.
func eventBefore(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventQueue is the pending-event priority queue behind an Engine. All
// implementations order events by eventBefore, so which one backs an
// engine never changes a simulation result, only its speed.
type eventQueue interface {
	push(ev *Event)
	// pop removes and returns the earliest pending event, nil when empty.
	pop() *Event
	// popLE removes and returns the earliest pending event whose
	// timestamp is <= deadline, or nil if there is none.
	popLE(deadline Time) *Event
	// remove unlinks a pending event (ev.idx >= 0).
	remove(ev *Event) bool
	len() int
}

// Engine is a discrete-event simulator: a virtual clock plus an ordered queue
// of pending events. The zero value is not usable; use NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	queue eventQueue
	fired uint64
	// free recycles fired Event structs so steady-state dispatch does not
	// allocate. Events removed via Cancel are deliberately not recycled:
	// cancellation sites commonly keep the handle around, and leaking the
	// odd cancelled event to the GC is cheaper than a stale-handle bug.
	free []*Event
	// block is the tail of the current carve-out chunk: when the free list
	// is empty, events come off it one by one, so growing the pending set
	// by N costs N/eventBlock allocations instead of N.
	block []Event
}

// eventBlock is the carve-out chunk size for fresh Event structs.
const eventBlock = 64

// newQueue builds the pending-event queue behind every Engine: the
// calendar queue. Tests swap in the reference binary heap (see
// export_test.go) to replay whole workloads against it.
var newQueue = func() eventQueue { return newCalendarQueue() }

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{queue: newQueue()} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return e.queue.len() }

// alloc takes an Event from the free list (or the heap) and stamps it.
func (e *Engine) alloc(when Time, fn func(now Time)) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		if len(e.block) == 0 {
			e.block = make([]Event, eventBlock)
		}
		ev = &e.block[0]
		e.block = e.block[1:]
	}
	ev.when = when
	ev.seq = e.seq
	ev.fn = fn
	ev.idx = -1
	e.seq++
	return ev
}

// recycle returns a fired event to the free list. The callback has already
// returned and the handle is dead by contract, so nothing can observe the
// reuse. The closure is dropped immediately so it does not outlive the
// event.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.fnArgs = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at the absolute virtual time when. Scheduling in the
// past (before Now) panics: it always indicates a simulation bug.
func (e *Engine) At(when Time, fn func(now Time)) *Event {
	if when < e.now {
		panic(fmt.Sprintf("simclock: scheduling event at %v before now %v", when, e.now))
	}
	ev := e.alloc(when, fn)
	e.queue.push(ev)
	return ev
}

// AtArgs schedules a shared payload-carrying callback at the absolute
// virtual time when: fn fires with the integer payload (a, b) it was
// scheduled with. It is At for callers that would otherwise allocate a
// closure per scheduling — one bound method value plus the two-int payload
// replaces the per-event closure, exactly as netsim's SendArgs does for
// link deliveries. Firing order is identical to At for the same times.
func (e *Engine) AtArgs(when Time, fn func(now Time, a, b int), a, b int) *Event {
	if when < e.now {
		panic(fmt.Sprintf("simclock: scheduling event at %v before now %v", when, e.now))
	}
	ev := e.alloc(when, nil)
	ev.fnArgs = fn
	ev.a, ev.b = a, b
	e.queue.push(ev)
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func(now Time)) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Every schedules fn to run every period, starting at start. It returns a
// cancel function; fn keeps rescheduling itself until cancelled.
func (e *Engine) Every(start Time, period Duration, fn func(now Time)) (cancel func()) {
	if period <= 0 {
		panic("simclock: Every requires a positive period")
	}
	stopped := false
	var tick func(now Time)
	tick = func(now Time) {
		if stopped {
			return
		}
		fn(now)
		if !stopped {
			e.At(now.Add(period), tick)
		}
	}
	e.At(start, tick)
	return func() { stopped = true }
}

// Cancel removes a pending event. Cancelling an already-fired or cancelled
// event is a no-op and returns false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.idx < 0 {
		return false
	}
	return e.queue.remove(ev)
}

// Step dispatches the single earliest pending event, advancing the clock to
// its timestamp. It reports false when no events remain.
func (e *Engine) Step() bool {
	ev := e.queue.pop()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

func (e *Engine) fire(ev *Event) {
	e.now = ev.when
	e.fired++
	if ev.fnArgs != nil {
		ev.fnArgs(e.now, ev.a, ev.b)
	} else {
		ev.fn(e.now)
	}
	e.recycle(ev)
}

// RunUntil dispatches events until the clock would pass deadline or the queue
// drains. The clock finishes exactly at deadline.
func (e *Engine) RunUntil(deadline Time) {
	for {
		ev := e.queue.popLE(deadline)
		if ev == nil {
			break
		}
		e.fire(ev)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Drain runs until no events remain. The limit guards against runaway
// self-rescheduling loops; Drain panics if more than limit events fire.
func (e *Engine) Drain(limit uint64) {
	start := e.fired
	for e.Step() {
		if e.fired-start > limit {
			panic("simclock: Drain exceeded event limit; runaway reschedule loop?")
		}
	}
}
