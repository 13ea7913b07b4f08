package sim

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestAdvanceAccumulatesTime(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Spawn("p", func(p *Proc) {
		p.Advance(5 * Millisecond)
		p.Advance(3 * Millisecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 8*Millisecond {
		t.Fatalf("end = %v, want 8ms", end)
	}
}

func TestZeroAdvanceIsNoop(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		before := p.Now()
		p.Advance(0)
		if p.Now() != before {
			t.Errorf("zero advance moved time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		e.Spawn("driver", func(p *Proc) {
			// Schedule several events at identical times; seq order must win.
			for i := 0; i < 5; i++ {
				i := i
				e.After(Millisecond, func() { order = append(order, i) })
			}
			p.Advance(2 * Millisecond)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("missing events: %v %v", a, b)
	}
	for i := range a {
		if a[i] != i || b[i] != i {
			t.Fatalf("nondeterministic order: %v vs %v", a, b)
		}
	}
}

func TestInterleavingTwoProcs(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		p.Advance(1 * Millisecond)
		trace = append(trace, "a1")
		p.Advance(2 * Millisecond)
		trace = append(trace, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		p.Advance(2 * Millisecond)
		trace = append(trace, "b2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a1,b2,a3"
	if got := strings.Join(trace, ","); got != want {
		t.Fatalf("trace = %s, want %s", got, want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) {
		p.Block("forever")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "forever") {
		t.Fatalf("deadlock error should name the block reason: %v", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		p.Advance(Millisecond)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 10
	e.Spawn("spin", func(p *Proc) {
		for {
			p.Advance(Millisecond)
		}
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "event limit") {
		t.Fatalf("expected event limit error, got %v", err)
	}
}

func TestBlockUnblock(t *testing.T) {
	e := NewEngine()
	var woke Time
	var waiter *Proc
	waiter = e.Spawn("waiter", func(p *Proc) {
		p.Block("signal")
		woke = p.Now()
	})
	e.Spawn("signaller", func(p *Proc) {
		p.Advance(7 * Millisecond)
		e.After(0, func() { waiter.Unblock() })
		p.Advance(Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 7*Millisecond {
		t.Fatalf("woke at %v, want 7ms", woke)
	}
}

func TestTimeStringAndSeconds(t *testing.T) {
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Fatalf("Seconds conversion wrong")
	}
	if (2 * Millisecond).Duration().Milliseconds() != 2 {
		t.Fatalf("Duration conversion wrong")
	}
}

// TestUnblockFromRunningProc covers the nested hand-off: a running process
// resumes a parked one directly (no event in between), the resumed process
// runs until it parks again, and control returns to the resumer.
func TestUnblockFromRunningProc(t *testing.T) {
	e := NewEngine()
	var trace []string
	var waiter *Proc
	waiter = e.Spawn("waiter", func(p *Proc) {
		p.Block("first")
		trace = append(trace, "w1")
		p.Block("second")
		trace = append(trace, "w2")
		p.Advance(Millisecond)
		trace = append(trace, "w3")
	})
	e.Spawn("signaller", func(p *Proc) {
		p.Advance(Millisecond)
		trace = append(trace, "s1")
		waiter.Unblock() // nested: runs the waiter up to its second Block
		trace = append(trace, "s2")
		p.Advance(Millisecond)
		waiter.Unblock() // nested again: the waiter parks in Advance this time
		trace = append(trace, "s3")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(trace, ","), "s1,w1,s2,w2,s3,w3"; got != want {
		t.Fatalf("trace = %s, want %s", got, want)
	}
	if e.Now() != 3*Millisecond {
		t.Fatalf("ended at %v, want 3ms", e.Now())
	}
}

// TestEventOrderMatchesSort drives the value heap with random (at, seq)
// keys, pushes and pops interleaved, and checks the pop order against sort.
func TestEventOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 200; round++ {
		var h eventHeap
		var pushed, popped []event
		seq := uint64(0)
		floor := Time(0) // like the engine, never schedule before the last pop
		for op := rng.Intn(300); op >= 0; op-- {
			if len(h) > 0 && rng.Intn(3) == 0 {
				ev := h.pop()
				popped, floor = append(popped, ev), ev.at
				continue
			}
			seq++
			ev := event{at: floor + Time(rng.Intn(4)), seq: seq} // few distinct times: seq must break ties
			h.push(ev)
			pushed = append(pushed, ev)
		}
		for len(h) > 0 {
			popped = append(popped, h.pop())
		}
		sort.Slice(pushed, func(i, j int) bool { return pushed[i].before(&pushed[j]) })
		if len(popped) != len(pushed) {
			t.Fatalf("round %d: popped %d of %d events", round, len(popped), len(pushed))
		}
		for i := range pushed {
			if popped[i].at != pushed[i].at || popped[i].seq != pushed[i].seq {
				t.Fatalf("round %d: pop %d is (%v, %d), sort says (%v, %d)", round, i,
					popped[i].at, popped[i].seq, pushed[i].at, pushed[i].seq)
			}
		}
	}
}

// TestFailedRunLeavesNoGoroutines: a run that ends in an error used to
// leave every parked process blocked on its resume channel for ever. Now
// Run unwinds them: their deferred functions run, none is reported as a
// panic, and the goroutine count is back where it started.
func TestFailedRunLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name, want string
		limit      uint64
		body       func(p *Proc)
	}{
		{"deadlock", "deadlock", 0, func(p *Proc) { p.Block("forever") }},
		{"event limit", "event limit", 200, func(p *Proc) {
			for {
				p.Advance(Millisecond)
			}
		}},
		{"proc panic", "kaboom", 0, func(p *Proc) {
			p.Advance(Time(1+p.ID()) * Millisecond)
			if p.ID() == 3 {
				panic("kaboom")
			}
			p.Block("after the panic")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for run := 0; run < 50; run++ {
				e := NewEngine()
				e.MaxEvents = c.limit
				unwound := 0
				for i := 0; i < 8; i++ {
					e.Spawn("p", func(p *Proc) {
						defer func() { unwound++ }()
						c.body(p)
					})
				}
				err := e.Run()
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("run %d: error %v, want one naming %q", run, err, c.want)
				}
				if c.want != "kaboom" && strings.Contains(err.Error(), "panicked") {
					t.Fatalf("run %d: the unwinding was reported as a proc panic: %v", run, err)
				}
				if unwound != 8 {
					t.Fatalf("run %d: %d of 8 bodies ran their deferred functions", run, unwound)
				}
			}
			if got := runtime.NumGoroutine(); got > base {
				t.Fatalf("%d goroutines after 50 failed runs, %d before", got, base)
			}
		})
	}
}

// TestGoexitInBodyEndsRunCaller: runtime.Goexit in a body (t.Fatal in a
// test's process) is not a panic, so Run does not turn it into an error: it
// ends the goroutine that called Run, after the other processes unwound.
func TestGoexitInBodyEndsRunCaller(t *testing.T) {
	returned, unwound := false, false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e := NewEngine()
		e.Spawn("quitter", func(p *Proc) {
			p.Advance(Millisecond)
			runtime.Goexit()
		})
		e.Spawn("bystander", func(p *Proc) {
			defer func() { unwound = true }()
			p.Block("forever")
		})
		_ = e.Run() // never returns: no error to report
		returned = true
	}()
	<-done
	if returned || !unwound {
		t.Fatalf("Run returned = %v, bystander unwound = %v; want false, true", returned, unwound)
	}
}

// TestTypedPanicStillMatches: a body that panics with an error keeps its
// identity through Run, and is not mistaken for the unwinding sentinel.
func TestTypedPanicStillMatches(t *testing.T) {
	sentinel := errors.New("typed condition")
	e := NewEngine()
	e.Spawn("p", func(p *Proc) { panic(sentinel) })
	e.Spawn("q", func(p *Proc) { p.Block("forever") })
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("Run error %v does not wrap the body's error", err)
	}
}
