package hostmem

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"testing"
)

// opReader decodes a fuzz input into operation parameters; it yields zeros
// once the input is exhausted.
type opReader struct{ b []byte }

func (r *opReader) done() bool { return len(r.b) == 0 }

func (r *opReader) u8() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

func (r *opReader) u16() int { return r.u8()<<8 | r.u8() }

// payload returns n bytes: all zeros or a pattern, chosen by the input.
func (r *opReader) payload(n int) []byte {
	p := make([]byte, n)
	if k := r.u8(); k&1 == 1 {
		for i := range p {
			p[i] = byte(i*k + k>>1)
		}
	}
	return p
}

// FuzzMemory drives random Alloc/Free/Read/Write/Zero/Slice and typed
// accessor sequences against a dense flat reference and asserts identical
// bytes, identical success/failure, and no panic.
func FuzzMemory(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		const size = 12*pageSize + 100 // not a page multiple
		m := New(size)
		ref := make([]byte, size)
		live := map[Addr]int64{}
		alloc := &refAllocator{free: []region{{base: 64, size: size - 64}}}
		inRange := func(addr, n int64) bool { return addr >= 0 && n >= 0 && addr+n <= size }
		r := &opReader{b: in}
		addr := func() int64 { return int64(r.u16())%(size+256) - 128 }
		for !r.done() {
			switch op := r.u8() % 10; op {
			case 0: // Alloc
				n := int64(r.u16()%(3*pageSize)) + 1
				align := int64(1) << (r.u8() % 13)
				a, err := m.Alloc(n, align)
				if want, ok := alloc.alloc(n, align); ok != (err == nil) || ok && a != want {
					t.Fatalf("Alloc(%d, %d) = %#x, %v; reference allocator gives %#x, %v", n, align, a, err, want, ok)
				}
				if err != nil {
					continue
				}
				if a <= 0 || a%align != 0 || a+n > size {
					t.Fatalf("Alloc(%d, %d) = %#x", n, align, a)
				}
				for b, bn := range live {
					if a < b+bn && b < a+n {
						t.Fatalf("Alloc(%d) = %#x overlaps [%#x, %#x)", n, a, b, b+bn)
					}
				}
				live[a] = n
			case 1: // Free a live allocation, or an arbitrary address
				var a Addr
				if k := r.u8(); k < 200 && len(live) > 0 {
					bases := make([]Addr, 0, len(live))
					for b := range live {
						bases = append(bases, b)
					}
					sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
					a = bases[k%len(bases)]
				} else {
					a = addr()
				}
				n, ok := live[a]
				if err := m.Free(a); (err == nil) != ok {
					t.Fatalf("Free(%#x) = %v, live %v", a, err, ok)
				}
				if ok {
					alloc.release(a, n)
				}
				delete(live, a)
			case 2: // Write
				a, p := addr(), r.payload(r.u16()%(2*pageSize+1))
				err := m.Write(a, p)
				if (err == nil) != inRange(a, int64(len(p))) {
					t.Fatalf("Write(%#x, %d) = %v", a, len(p), err)
				}
				if err == nil {
					copy(ref[a:], p)
				}
			case 3: // Read
				a, n := addr(), r.u16()%(2*pageSize+1)
				got := make([]byte, n)
				err := m.Read(a, got)
				if (err == nil) != inRange(a, int64(n)) {
					t.Fatalf("Read(%#x, %d) = %v", a, n, err)
				}
				if err == nil && !bytes.Equal(got, ref[a:a+int64(n)]) {
					t.Fatalf("Read(%#x, %d) differs from reference", a, n)
				}
			case 4: // Zero
				a, n := addr(), int64(r.u16()%(2*pageSize+1))
				err := m.Zero(a, n)
				if (err == nil) != inRange(a, n) {
					t.Fatalf("Zero(%#x, %d) = %v", a, n, err)
				}
				if err == nil {
					clear(ref[a : a+n])
				}
			case 5: // Slice, then write through it
				a, n := addr(), int64(r.u16()%(pageSize+64))
				s, err := m.Slice(a, n)
				want := inRange(a, n) && sliceable(live, a, n)
				if (err == nil) != want {
					t.Fatalf("Slice(%#x, %d) = %v, want success %v", a, n, err, want)
				}
				if err != nil {
					continue
				}
				if int64(len(s)) != n || !bytes.Equal(s, ref[a:a+n]) {
					t.Fatalf("Slice(%#x, %d) differs from reference", a, n)
				}
				if n > 0 {
					v := byte(r.u8())
					s[n-1] = v
					ref[a+n-1] = v
				}
			case 6, 7: // 32-bit accessors
				a, v := addr(), uint32(r.u16())<<16|uint32(r.u16())
				ok := inRange(a, 4)
				if op == 6 {
					if err := m.WriteU32(a, v); (err == nil) != ok {
						t.Fatalf("WriteU32(%#x) = %v", a, err)
					}
					if ok {
						binary.BigEndian.PutUint32(ref[a:], v)
					}
				} else if got, err := m.ReadU32(a); (err == nil) != ok || ok && got != binary.BigEndian.Uint32(ref[a:]) {
					t.Fatalf("ReadU32(%#x) = %#x, %v", a, got, err)
				}
			case 8, 9: // 64-bit accessors
				a := addr()
				v := uint64(r.u16())<<48 | uint64(r.u16())<<8 | uint64(r.u8())
				ok := inRange(a, 8)
				if op == 8 {
					if err := m.WriteU64(a, v); (err == nil) != ok {
						t.Fatalf("WriteU64(%#x) = %v", a, err)
					}
					if ok {
						binary.BigEndian.PutUint64(ref[a:], v)
					}
				} else if got, err := m.ReadU64(a); (err == nil) != ok || ok && got != binary.BigEndian.Uint64(ref[a:]) {
					t.Fatalf("ReadU64(%#x) = %#x, %v", a, got, err)
				}
			}
			checkSegments(t, m)
			var liveBytes int64
			for _, n := range live {
				liveBytes += n
			}
			if !slices.Equal(m.free, alloc.free) {
				t.Fatalf("free list %v, reference %v", m.free, alloc.free)
			}
			if m.AllocBytes != liveBytes || m.LiveAllocs() != len(live) {
				t.Fatalf("AllocBytes %d / LiveAllocs %d, want %d / %d", m.AllocBytes, m.LiveAllocs(), liveBytes, len(live))
			}
		}
		all := make([]byte, size)
		if err := m.Read(0, all); err != nil || !bytes.Equal(all, ref) {
			t.Fatalf("final memory image differs from reference (%v)", err)
		}
	})
}

// sliceable reports whether Slice(a, n) has one backing array: the range
// lies inside one live allocation, or inside one page and outside every
// allocation.
func sliceable(live map[Addr]int64, a, n int64) bool {
	if n == 0 {
		return true
	}
	for b, bn := range live {
		if a >= b && a < b+bn {
			return a+n <= b+bn
		}
	}
	if a>>pageShift != (a+n-1)>>pageShift {
		return false
	}
	for b, bn := range live {
		if a < b+bn && b < a+n {
			return false
		}
	}
	return true
}

// checkSegments asserts the segment list and page index are consistent:
// segments are ordered, disjoint and doubly linked, live ones are exactly
// the allocations, and every page names its lowest overlapping segment.
func checkSegments(t *testing.T, m *Memory) {
	t.Helper()
	want := make([]int32, len(m.first))
	lives := 0
	var prev int32
	for id := m.head; id != 0; id = m.segs[id].next {
		s := &m.segs[id]
		if s.prev != prev || s.base >= s.end || int64(len(s.data)) != s.end-s.base ||
			prev != 0 && m.segs[prev].end > s.base {
			t.Fatalf("segment %d [%#x, %#x) badly linked or overlapping", id, s.base, s.end)
		}
		if s.live {
			lives++
			if m.allocs[s.base] != id {
				t.Fatalf("live segment %d at %#x is not the allocation there", id, s.base)
			}
		}
		for p := s.base >> pageShift; p <= (s.end-1)>>pageShift; p++ {
			if want[p] == 0 {
				want[p] = id
			}
		}
		prev = id
	}
	if lives != len(m.allocs) {
		t.Fatalf("%d live segments for %d allocations", lives, len(m.allocs))
	}
	for p := range want {
		if m.first[p] != want[p] {
			t.Fatalf("page %d indexes segment %d, want %d", p, m.first[p], want[p])
		}
	}
}

// refAllocator is the first-fit allocator in its plainest form: carve the
// first fitting region, and on free re-sort and coalesce the whole list.
// Memory must hand out exactly the same addresses, since they reach the
// simulated bytes.
type refAllocator struct{ free []region }

func (r *refAllocator) alloc(size, align int64) (Addr, bool) {
	if align == 0 {
		align = 8
	}
	for i, f := range r.free {
		base := (f.base + align - 1) &^ (align - 1)
		pad := base - f.base
		if pad+size > f.size {
			continue
		}
		var repl []region
		if pad > 0 {
			repl = append(repl, region{base: f.base, size: pad})
		}
		if rest := f.size - pad - size; rest > 0 {
			repl = append(repl, region{base: base + size, size: rest})
		}
		r.free = append(r.free[:i], append(repl, r.free[i+1:]...)...)
		return base, true
	}
	return 0, false
}

func (r *refAllocator) release(addr Addr, size int64) {
	r.free = append(r.free, region{base: addr, size: size})
	sort.Slice(r.free, func(i, j int) bool { return r.free[i].base < r.free[j].base })
	out := r.free[:1]
	for _, f := range r.free[1:] {
		if last := &out[len(out)-1]; last.base+last.size == f.base {
			last.size += f.size
		} else {
			out = append(out, f)
		}
	}
	r.free = out
}
