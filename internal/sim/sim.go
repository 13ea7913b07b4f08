// Package sim provides a deterministic discrete-event simulator used as the
// cluster substrate for the DSM protocols: virtual time, one application
// process (coroutine) per node, and an event queue executed in (time, seq)
// order on a single engine goroutine.
//
// Each process is an iter.Pull coroutine: resuming one is a call of its
// next function, parking is a yield back to whoever resumed it. Both are
// direct goroutine switches on the calling thread, so exactly one of the
// engine and the processes runs at any moment and the Go scheduler never
// sees a second runnable goroutine; all protocol state can therefore be
// mutated without locks, exactly like a single threaded simulation, while
// application code is still written in plain blocking style.
//
// The coroutines rely on three invariants. A process is resumed only from
// the goroutine that called Run (inside an event function) or from another
// process that is itself running: never from two goroutines at once. A
// panic in a body becomes Run's error, but runtime.Goexit in a body
// (t.Fatal) is not caught: it ends the goroutine that called Run. And
// however Run ends it unwinds every process still parked, by a private
// panic out of the pending Advance, Block or call that runs the body's
// deferred functions; a body must not swallow it with its own recover.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"

	"adsm/internal/transport"
)

// Time is virtual time in nanoseconds (the transport seam's time type, so
// protocol code is substrate-agnostic).
type Time = transport.Time

// Convenient virtual-time units.
const (
	Nanosecond  = transport.Nanosecond
	Microsecond = transport.Microsecond
	Millisecond = transport.Millisecond
	Second      = transport.Second
)

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before is the queue order: time first, scheduling order among equals.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of event values: scheduling and running an
// event allocates nothing beyond the slice's amortised growth.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for ; i > 0 && ev.before(&s[(i-1)/2]); i = (i - 1) / 2 {
		s[i] = s[(i-1)/2]
	}
	s[i] = ev
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && s[c+1].before(&s[c]) {
			c++
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	s[n] = event{} // drop the closure reference
	*h = s[:n]
	return top
}

// Engine is a discrete-event simulation engine. Create one with NewEngine,
// spawn processes with Spawn, then call Run, which returns when every
// process has finished (or an error on deadlock or process panic).
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	procs  []*Proc
	live   int
	err    error

	// MaxEvents guards against runaway protocols; 0 means no limit.
	MaxEvents uint64
	executed  uint64
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time. Valid during Run (from event
// handlers and process code).
func (e *Engine) Now() Time { return e.now }

// After schedules fn to run at Now()+d. It may be called from event
// handlers and from process code; both run with the engine otherwise
// quiescent, so no locking is needed.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.seq++
	e.events.push(event{at: e.now + d, seq: e.seq, fn: fn})
}

// Fail aborts the simulation with err at the end of the current event.
func (e *Engine) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Proc is a simulated process: a coroutine whose execution interleaves with
// the event queue under engine control. A Proc advances its own virtual
// clock explicitly (Advance) and blocks in calls that other events complete.
type Proc struct {
	eng  *Engine
	id   int
	name string

	next  func() (struct{}, bool) // run the body until it parks or finishes
	yield func(struct{}) bool     // park; false once stop has been called
	stop  func()                  // unwind a parked body
	wake  func()                  // the event function that resumes this proc

	done      bool
	blockedOn string
}

// procStopped is the panic that unwinds a process still parked at Run's end.
type procStopped struct{}

// ID returns the process's index in spawn order (the node id).
func (p *Proc) ID() int { return p.id }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the process-local virtual time, which equals the engine time
// whenever the process is running.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn registers a new process whose body is fn. The body starts at
// virtual time Now() when Run executes the start event.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, id: len(e.procs), name: name}
	e.procs = append(e.procs, p)
	e.live++
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			r := recover()
			if _, stopped := r.(procStopped); r != nil && !stopped {
				e.Fail(panicErr(fmt.Sprintf("sim: proc %q panicked", p.name), r))
			}
			p.done = true
			e.live--
		}()
		fn(p)
	})
	p.wake = func() { e.resumeProc(p) }
	e.After(0, p.wake)
	return p
}

// resumeProc switches to p and returns when it parks again (or finishes).
// Must only be called from an event function or from another process that
// is currently running.
func (e *Engine) resumeProc(p *Proc) {
	if p.done {
		panic("sim: resuming finished proc " + p.name)
	}
	p.blockedOn = ""
	p.next()
}

// park suspends the calling process until another event resumes it.
func (p *Proc) park(reason string) {
	p.blockedOn = reason
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
}

// Advance moves the process's virtual clock forward by d, modelling local
// computation. Other events (message deliveries, other processes) run in
// the meantime.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("sim: negative advance")
	}
	if d == 0 {
		return
	}
	p.eng.After(d, p.wake)
	p.park("advance")
}

// Block parks the process with a diagnostic reason until some other event
// calls Unblock. Protocol layers build blocking primitives from this.
func (p *Proc) Block(reason string) { p.park(reason) }

// Unblock resumes a process parked with Block (or any parked process). It
// must be called from an event function or another running process.
func (p *Proc) Unblock() { p.eng.resumeProc(p) }

// Run executes events until all processes have finished. It returns an
// error if a process panicked, if the event limit is exceeded, or if the
// system deadlocks (live processes but no pending events). Whichever way
// it ends, no process is left parked: see stopProcs.
func (e *Engine) Run() error {
	defer e.stopProcs()
	for e.live > 0 {
		if e.err != nil {
			return e.err
		}
		if len(e.events) == 0 {
			return e.deadlock()
		}
		ev := e.events.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.executed++
		if e.MaxEvents > 0 && e.executed > e.MaxEvents {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", e.MaxEvents, e.now)
		}
		e.runEvent(ev.fn)
	}
	return e.err
}

// stopProcs unwinds every process that has not finished (stop does nothing
// to one that has), so that a failed run (deadlock, event limit, a panic,
// Goexit in a body) pins neither the coroutines nor the cluster state their
// stacks reference.
func (e *Engine) stopProcs() {
	for _, p := range e.procs {
		p.stop()
	}
}

// runEvent executes one event function, converting a panic (e.g. a
// protocol handler rejecting a message) into a simulation error so that
// transport-level failures surface loudly from Run instead of crashing the
// engine goroutine.
func (e *Engine) runEvent(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			e.Fail(panicErr("sim: event panicked", r))
		}
	}()
	fn()
}

// panicErr converts a recovered panic value into a Run error. A panic
// that is itself an error (a protocol raising a typed condition, e.g.
// core.ErrGCUnsupported) is wrapped so errors.Is still matches it;
// anything else is an engine bug and keeps its stack trace.
func panicErr(ctx string, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("%s: %w", ctx, err)
	}
	return fmt.Errorf("%s: %v\n%s", ctx, r, debug.Stack())
}

func (e *Engine) deadlock() error {
	var blocked []string
	for _, p := range e.procs {
		if !p.done {
			blocked = append(blocked, fmt.Sprintf("%s(blocked on %s)", p.name, p.blockedOn))
		}
	}
	sort.Strings(blocked)
	return fmt.Errorf("sim: deadlock at t=%v: %d live procs, no events: %v", e.now, len(blocked), blocked)
}

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }
