// The constraint raises this file's language version to go1.23 for
// iter.Pull; the module's go directive stays at 1.22 so that modules pinned
// to 1.22 can still require this one.

//go:build go1.23

package sim

import "iter"

// Proc is a simulation process: a coroutine whose execution is interleaved
// with the event loop. At any moment either the engine or exactly one
// process runs. A process blocks only through the kernel primitives (Sleep,
// Wait, FIFO.Pop, Semaphore.Acquire, ...), each of which parks the coroutine
// and returns control to the engine.
//
// The hand-off makes process code look like ordinary sequential software:
// guest kernels, hypervisor interrupt handlers, and device pipeline stages
// are all written as plain loops over blocking calls.
//
// Each process is one iter.Pull coroutine: resume is its next, park is its
// yield, and Engine.Shutdown kills it with stop. A panic in process code
// propagates out of the resume, and so out of Engine.Step or Engine.Run, to
// their caller; the value survives, the stack it was raised on does not.
type Proc struct {
	eng   *Engine
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	wake  func() // resume, built once: Sleep, Yield and the start event reuse it
	done  func() // complete, built once: the completion every Wait hands out
	wait  waitState
	name  string
}

// waitState tracks a Proc.Wait in progress.
type waitState uint8

const (
	waitIdle     waitState = iota // no Wait in progress
	waitStarting                  // start is running; done would complete inline
	waitInline                    // done ran inside start
	waitParked                    // parked until done
)

type procKilled struct{}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Name returns the debug name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Go spawns a new process executing fn. The process starts at the current
// virtual time (after already-pending events at this timestamp). When fn
// returns the process disappears.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// A killed process has finished unwinding (deferred cleanups
			// included) when stop returns to the killer, so two victims'
			// cleanups never run concurrently. Any other panic goes on to
			// the caller of next.
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					panic(r)
				}
			}
		}()
		fn(p)
		delete(e.procs, p)
	})
	p.wake = p.resume
	p.done = p.complete
	e.procs[p] = struct{}{}
	e.After(0, p.wake)
	return p
}

// resume transfers control to the process and returns when it parks again
// or terminates.
func (p *Proc) resume() { p.next() }

// park returns control to the engine and returns when resumed.
// Must be called from process context.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Sleep suspends the process for d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	p.eng.After(d, p.wake)
	p.park()
}

// Yield parks the process and reschedules it at the current time, letting
// other events and processes at this timestamp run first.
func (p *Proc) Yield() {
	p.eng.After(0, p.wake)
	p.park()
}

// Wait adapts a callback-style asynchronous operation to process style.
// start must initiate the operation and arrange for done to be invoked
// exactly once from engine context when the operation completes. Wait blocks
// the process until then. done may also be invoked synchronously from within
// start. done is the process's one completion func, shared by all its Waits;
// a call when no Wait is pending panics.
func (p *Proc) Wait(start func(done func())) {
	if p.wait != waitIdle {
		panic("sim: Proc.Wait called inside another Wait's start")
	}
	p.wait = waitStarting
	start(p.done)
	if p.wait == waitInline {
		p.wait = waitIdle
		return
	}
	p.wait = waitParked
	p.park()
}

// complete is the done func of every Wait: it finishes the Wait in progress.
func (p *Proc) complete() {
	switch p.wait {
	case waitStarting:
		p.wait = waitInline
	case waitParked:
		p.wait = waitIdle
		p.resume()
	default:
		panic("sim: Wait completion for process " + p.name + " with no Wait pending")
	}
}

// Signal is a single-use wakeup another party completes. Zero value is ready
// for use after NewSignal.
type Signal struct {
	eng   *Engine
	fired bool
	wait  []signalWaiter
}

// signalWaiter is a parked process's done func. An AwaitTimeout waiter also
// carries the flag its deadline shares, so only the first of fire and
// deadline wakes it.
type signalWaiter struct {
	done  func()
	woken *bool // nil for Await
}

// NewSignal returns a signal bound to engine e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Fire marks the signal complete and wakes every waiter. Firing twice is a
// no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.wait {
		if w.woken != nil {
			if *w.woken {
				continue
			}
			*w.woken = true
		}
		s.eng.After(0, w.done)
	}
	s.wait = nil
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Await blocks the process until the signal fires (returns immediately if it
// already has).
func (s *Signal) Await(p *Proc) {
	if s.fired {
		return
	}
	p.Wait(func(done func()) {
		s.wait = append(s.wait, signalWaiter{done: done})
	})
}

// AwaitTimeout blocks the process until the signal fires or d elapses,
// reporting whether the signal had fired by the time the process resumed.
// A non-positive d waits without a deadline. The deadline event stays in the
// engine's queue until it expires (a no-op if the signal won), so timeouts
// should be armed only where recovery genuinely needs them.
func (s *Signal) AwaitTimeout(p *Proc, d Time) bool {
	if s.fired {
		return true
	}
	if d <= 0 {
		s.Await(p)
		return true
	}
	p.Wait(func(done func()) {
		woken := new(bool)
		s.wait = append(s.wait, signalWaiter{done: done, woken: woken})
		s.eng.After(d, func() {
			if !*woken {
				*woken = true
				s.eng.After(0, done)
			}
		})
	})
	return s.fired
}

// WaitGroup counts outstanding operations and wakes waiters at zero, like
// sync.WaitGroup but in virtual time.
type WaitGroup struct {
	eng  *Engine
	n    int
	wait []func()
}

// NewWaitGroup returns a wait group bound to engine e.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{eng: e} }

// Add increments the outstanding-operation count by delta.
func (w *WaitGroup) Add(delta int) { w.n += delta }

// Done decrements the count; at zero all waiters wake.
func (w *WaitGroup) Done() {
	w.n--
	if w.n < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if w.n == 0 {
		waiters := w.wait
		w.wait = nil
		for _, done := range waiters {
			w.eng.After(0, done)
		}
	}
}

// WaitFor blocks the process until the count reaches zero.
func (w *WaitGroup) WaitFor(p *Proc) {
	if w.n == 0 {
		return
	}
	p.Wait(func(done func()) {
		w.wait = append(w.wait, done)
	})
}
