package sim

// FIFO is a bounded first-in-first-out queue connecting processes (or event
// callbacks) in a pipeline. Pop blocks the calling process while the queue is
// empty; Push blocks while it is full, providing natural backpressure between
// pipeline stages. A capacity of 0 means unbounded.
type FIFO[T any] struct {
	eng     *Engine
	cap     int
	items   queue[T]
	getters queue[func()] // parked poppers' done funcs
	putters queue[func()] // parked pushers' done funcs
}

// NewFIFO returns a queue bound to engine e with the given capacity
// (0 = unbounded).
func NewFIFO[T any](e *Engine, capacity int) *FIFO[T] {
	return &FIFO[T]{eng: e, cap: capacity}
}

// Len reports the number of queued items.
func (q *FIFO[T]) Len() int { return q.items.len() }

// full reports whether a bounded queue is at capacity.
func (q *FIFO[T]) full() bool { return q.cap > 0 && q.items.len() >= q.cap }

// TryPush enqueues v if the queue has room, reporting whether it did.
// Safe from event context.
func (q *FIFO[T]) TryPush(v T) bool {
	if q.full() {
		return false
	}
	q.items.push(v)
	q.wakeGetter()
	return true
}

// Push enqueues v, blocking the process while the queue is full.
func (q *FIFO[T]) Push(p *Proc, v T) {
	for q.full() {
		p.Wait(func(done func()) { q.putters.push(done) })
	}
	q.items.push(v)
	q.wakeGetter()
}

// Pop dequeues the oldest item, blocking the process while the queue is
// empty.
func (q *FIFO[T]) Pop(p *Proc) T {
	for q.items.len() == 0 {
		p.Wait(func(done func()) { q.getters.push(done) })
	}
	v := q.items.pop()
	q.wakePutter()
	return v
}

// TryPop dequeues the oldest item without blocking, reporting whether one
// was available. Safe from event context.
func (q *FIFO[T]) TryPop() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	v := q.items.pop()
	q.wakePutter()
	return v, true
}

func (q *FIFO[T]) wakeGetter() {
	if q.getters.len() > 0 {
		q.eng.After(0, q.getters.pop())
	}
}

func (q *FIFO[T]) wakePutter() {
	if q.putters.len() > 0 {
		q.eng.After(0, q.putters.pop())
	}
}

// queue is a first-in-first-out slice that reuses its backing array: pop
// advances a head index, and a push that would grow the array first slides
// the live items down when at least half of it is popped slots.
type queue[T any] struct {
	buf  []T
	head int
}

func (q *queue[T]) len() int { return len(q.buf) - q.head }

func (q *queue[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *queue[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// Semaphore is a counting semaphore in virtual time, used to model exclusive
// or limited-parallelism resources (e.g. a filesystem-wide lock, a DMA
// channel count).
type Semaphore struct {
	eng     *Engine
	avail   int
	waiters queue[func()] // parked acquirers' done funcs
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	return &Semaphore{eng: e, avail: n}
}

// Acquire takes one permit, blocking the process until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.avail == 0 {
		p.Wait(func(done func()) { s.waiters.push(done) })
	}
	s.avail--
}

// Release returns one permit and wakes a single waiter, if any.
func (s *Semaphore) Release() {
	s.avail++
	if s.waiters.len() > 0 {
		s.eng.After(0, s.waiters.pop())
	}
}

// Available reports the current permit count.
func (s *Semaphore) Available() int { return s.avail }
