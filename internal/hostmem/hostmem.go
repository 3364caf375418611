// Package hostmem models host physical memory (DRAM) as seen by the NeSC
// device over PCIe: a flat byte-addressable space with a simple region
// allocator. Extent trees, DMA ring buffers, trampoline buffers, and guest
// RAM windows all live here, so the device-side extent walker reads exactly
// the bytes the hypervisor serialized — the same contract the hardware DMA
// walk has.
//
// Address 0 is reserved as the NULL pointer: the extent-tree format uses a
// zero child pointer to mark pruned subtrees, so no allocation may start at
// address zero.
//
// The space is flat but stored sparsely, as a set of non-overlapping
// segments, each with its own backing array. Every live allocation is one
// segment, so a Slice inside an allocation is a live zero-copy view. Free
// keeps a non-zero allocation's bytes as a free segment, and the first
// non-zero write to bytes outside every segment creates one for its stretch
// of the page; bytes in no segment read as zeros. Alloc takes over the bytes
// of the free segments it covers — in place when one segment contains it —
// so every byte keeps its value across the allocator exactly as in one dense
// array. A per-page index names the lowest segment overlapping each page,
// which makes the address-to-backing lookup O(1) on the access path.
package hostmem

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Addr is a host physical address.
type Addr = int64

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

const (
	recentShift = 8
	recentSlots = 1 << 13
)

// zeroPage is never written; zero tests compare against it.
var zeroPage [pageSize]byte

// Memory is a flat host physical memory with a first-fit region allocator.
type Memory struct {
	size int64
	// free regions sorted by base; adjacent regions are always merged.
	free []region
	// allocs maps base -> segment id of the live allocation there.
	allocs map[Addr]int32

	// segs holds the segments; id 0 is unused so that 0 means "none" in
	// head, first and the link fields. idle lists reusable ids.
	segs []segment
	idle []int32
	// head is the lowest segment; segments form one list in address order.
	head int32
	// first[p] is the lowest segment overlapping page p, or 0.
	first []int32
	// recent remembers, per 256-byte granule (direct-mapped), the segment
	// that last held an access there, so most accesses skip the walk along
	// their page's segments. An entry is only a hint: it is used when the
	// segment now under that id contains the address, which is exact because
	// segments are disjoint and a removed segment's slot is cleared.
	recent [recentSlots]int32

	// AllocBytes tracks live allocated bytes (for pruning experiments).
	AllocBytes int64
}

type region struct {
	base Addr
	size int64
}

// segment is one stretch [base, end) of memory with its own bytes: a live
// allocation, or bytes kept outside any allocation.
type segment struct {
	base, end  Addr
	data       []byte
	live       bool
	prev, next int32 // address-order neighbours (0 = none)
}

// New returns a memory of the given size. The first 64 bytes are reserved so
// no allocation returns address 0 (the extent-tree NULL pointer). No backing
// memory is allocated until bytes are allocated or written.
func New(size int64) *Memory {
	const reserve = 64
	if size <= reserve {
		panic("hostmem: memory too small")
	}
	return &Memory{
		size:   size,
		free:   []region{{base: reserve, size: size - reserve}},
		allocs: make(map[Addr]int32),
		segs:   make([]segment, 1),
		first:  make([]int32, (size+pageMask)>>pageShift),
	}
}

// Size reports the total memory size in bytes.
func (m *Memory) Size() int64 { return m.size }

// check validates an access range.
func (m *Memory) check(addr Addr, n int64) error {
	if addr < 0 || n < 0 || addr+n > m.size {
		return fmt.Errorf("hostmem: access [%#x, %#x) outside memory of %d bytes", addr, addr+n, m.size)
	}
	return nil
}

// locate finds what holds addr (0 <= addr < size): the segment containing it
// and that segment's bounds, or 0 and the bounds of the segment-free stretch
// around addr, clipped to addr's page.
func (m *Memory) locate(addr Addr) (id int32, lo, hi Addr) {
	lo = addr &^ pageMask
	hi = min(lo+pageSize, m.size)
	for id = m.first[addr>>pageShift]; id != 0; {
		s := &m.segs[id]
		if addr < s.base {
			return 0, lo, min(s.base, hi)
		}
		if addr < s.end {
			return id, s.base, s.end
		}
		lo = max(lo, s.end)
		id = s.next
	}
	return 0, lo, hi
}

// within returns the segment holding all of [addr, addr+n), or nil.
func (m *Memory) within(addr Addr, n int64) *segment {
	c := &m.recent[addr>>recentShift&(recentSlots-1)]
	if s := &m.segs[*c]; s.base <= addr && addr < s.end {
		if addr+n <= s.end {
			return s
		}
		return nil
	}
	for id := m.first[addr>>pageShift]; id != 0; {
		s := &m.segs[id]
		if addr < s.base {
			return nil
		}
		if addr < s.end {
			*c = id
			if addr+n <= s.end {
				return s
			}
			return nil
		}
		id = s.next
	}
	return nil
}

func isZero(p []byte) bool {
	for len(p) > pageSize {
		if !bytes.Equal(p[:pageSize], zeroPage[:]) {
			return false
		}
		p = p[pageSize:]
	}
	return bytes.Equal(p, zeroPage[:len(p)])
}

// Read copies len(p) bytes starting at addr into p.
func (m *Memory) Read(addr Addr, p []byte) error {
	n := int64(len(p))
	if err := m.check(addr, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if s := m.within(addr, n); s != nil {
		copy(p, s.data[addr-s.base:])
		return nil
	}
	for len(p) > 0 {
		id, _, hi := m.locate(addr)
		k := min(hi-addr, int64(len(p)))
		if id != 0 {
			s := &m.segs[id]
			copy(p[:k], s.data[addr-s.base:])
		} else {
			clear(p[:k])
		}
		addr += k
		p = p[k:]
	}
	return nil
}

// Write copies p into memory starting at addr.
func (m *Memory) Write(addr Addr, p []byte) error {
	n := int64(len(p))
	if err := m.check(addr, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if s := m.within(addr, n); s != nil {
		copy(s.data[addr-s.base:], p)
		return nil
	}
	for len(p) > 0 {
		id, lo, hi := m.locate(addr)
		k := min(hi-addr, int64(len(p)))
		if id == 0 && !isZero(p[:k]) {
			id = m.claim(lo, hi, false)
		}
		if id != 0 {
			s := &m.segs[id]
			copy(s.data[addr-s.base:], p[:k])
		}
		addr += k
		p = p[k:]
	}
	return nil
}

// Zero clears n bytes starting at addr.
func (m *Memory) Zero(addr Addr, n int64) error {
	if err := m.check(addr, n); err != nil {
		return err
	}
	for end := addr + n; addr < end; {
		id, _, hi := m.locate(addr)
		hi = min(hi, end)
		if id != 0 {
			s := &m.segs[id]
			clear(s.data[addr-s.base : hi-s.base])
		}
		addr = hi
	}
	return nil
}

// Slice returns the live backing bytes for [addr, addr+n). Mutating the
// returned slice mutates memory; it models zero-copy device access and must
// not be retained across allocator calls. The range must lie inside one live
// allocation, or inside one page outside every allocation; any other range
// has no single backing array and returns an error.
func (m *Memory) Slice(addr Addr, n int64) ([]byte, error) {
	if err := m.check(addr, n); err != nil {
		return nil, err
	}
	if n == 0 {
		return []byte{}, nil
	}
	end := addr + n
	id, _, hi := m.locate(addr)
	if id != 0 && m.segs[id].live {
		if end > hi {
			return nil, fmt.Errorf("hostmem: slice [%#x, %#x) runs past its allocation", addr, end)
		}
		return m.view(id, addr, end), nil
	}
	if addr>>pageShift != (end-1)>>pageShift {
		return nil, fmt.Errorf("hostmem: slice [%#x, %#x) spans unallocated pages", addr, end)
	}
	if id == 0 || end > hi {
		// Gather the range into one segment, unless an allocation overlaps it.
		for x := m.first[addr>>pageShift]; x != 0 && m.segs[x].base < end; x = m.segs[x].next {
			if m.segs[x].live && m.segs[x].end > addr {
				return nil, fmt.Errorf("hostmem: slice [%#x, %#x) overlaps an allocation", addr, end)
			}
		}
		id = m.claim(addr, end, false)
	}
	return m.view(id, addr, end), nil
}

func (m *Memory) view(id int32, addr, end Addr) []byte {
	s := &m.segs[id]
	return s.data[addr-s.base : end-s.base : end-s.base]
}

// Typed big-endian accessors. The NeSC wire format is big-endian so
// serialized structures are unambiguous in hex dumps.

// ReadU64 reads a big-endian uint64 at addr.
func (m *Memory) ReadU64(addr Addr) (uint64, error) {
	if err := m.check(addr, 8); err != nil {
		return 0, err
	}
	if s := m.within(addr, 8); s != nil {
		return binary.BigEndian.Uint64(s.data[addr-s.base:]), nil
	}
	var b [8]byte
	err := m.Read(addr, b[:])
	return binary.BigEndian.Uint64(b[:]), err
}

// WriteU64 writes a big-endian uint64 at addr.
func (m *Memory) WriteU64(addr Addr, v uint64) error {
	if err := m.check(addr, 8); err != nil {
		return err
	}
	if s := m.within(addr, 8); s != nil {
		binary.BigEndian.PutUint64(s.data[addr-s.base:], v)
		return nil
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return m.Write(addr, b[:])
}

// ReadU32 reads a big-endian uint32 at addr.
func (m *Memory) ReadU32(addr Addr) (uint32, error) {
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	if s := m.within(addr, 4); s != nil {
		return binary.BigEndian.Uint32(s.data[addr-s.base:]), nil
	}
	var b [4]byte
	err := m.Read(addr, b[:])
	return binary.BigEndian.Uint32(b[:]), err
}

// WriteU32 writes a big-endian uint32 at addr.
func (m *Memory) WriteU32(addr Addr, v uint32) error {
	if err := m.check(addr, 4); err != nil {
		return err
	}
	if s := m.within(addr, 4); s != nil {
		binary.BigEndian.PutUint32(s.data[addr-s.base:], v)
		return nil
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return m.Write(addr, b[:])
}

// Alloc reserves size bytes aligned to align (power of two or 1; 0 means 8)
// and returns the base address. First-fit over the free list. The new
// allocation holds whatever bytes the range held before.
func (m *Memory) Alloc(size, align int64) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("hostmem: alloc of %d bytes", size)
	}
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("hostmem: alignment %d not a power of two", align)
	}
	for i, r := range m.free {
		base := (r.base + align - 1) &^ (align - 1)
		pad := base - r.base
		if pad+size > r.size {
			continue
		}
		// Carve [base, base+size) out of r, leaving its pad and its rest.
		rest := region{base: base + size, size: r.size - pad - size}
		switch {
		case pad > 0 && rest.size > 0:
			m.free[i].size = pad
			m.free = slices.Insert(m.free, i+1, rest)
		case pad > 0:
			m.free[i].size = pad
		case rest.size > 0:
			m.free[i] = rest
		default:
			m.free = slices.Delete(m.free, i, i+1)
		}
		m.allocs[base] = m.claim(base, base+size, true)
		m.AllocBytes += size
		return base, nil
	}
	return 0, fmt.Errorf("hostmem: out of memory allocating %d bytes (align %d)", size, align)
}

// MustAlloc is Alloc that panics on failure; used by setup code where
// exhaustion is a configuration bug.
func (m *Memory) MustAlloc(size, align int64) Addr {
	a, err := m.Alloc(size, align)
	if err != nil {
		panic(err)
	}
	return a
}

// Free releases an allocation made by Alloc, coalescing adjacent free
// regions. The allocation's bytes stay in memory.
func (m *Memory) Free(addr Addr) error {
	id, ok := m.allocs[addr]
	if !ok {
		return fmt.Errorf("hostmem: free of unallocated address %#x", addr)
	}
	delete(m.allocs, addr)
	s := &m.segs[id]
	size := s.end - s.base
	s.live = false
	if isZero(s.data) {
		m.remove(id)
	}
	m.AllocBytes -= size
	// Insert the region in base order, merging it with adjacent free
	// neighbours so the list stays sorted and coalesced.
	i, _ := slices.BinarySearchFunc(m.free, addr, func(r region, a Addr) int { return cmp.Compare(r.base, a) })
	joinLeft := i > 0 && m.free[i-1].base+m.free[i-1].size == addr
	joinRight := i < len(m.free) && addr+size == m.free[i].base
	switch {
	case joinLeft && joinRight:
		m.free[i-1].size += size + m.free[i].size
		m.free = slices.Delete(m.free, i, i+1)
	case joinLeft:
		m.free[i-1].size += size
	case joinRight:
		m.free[i] = region{base: addr, size: size + m.free[i].size}
	default:
		m.free = slices.Insert(m.free, i, region{base: addr, size: size})
	}
	return nil
}

// FreeBytes reports the total free bytes (for allocator tests and the
// pruning ablation).
func (m *Memory) FreeBytes() int64 {
	var n int64
	for _, r := range m.free {
		n += r.size
	}
	return n
}

// LiveAllocs reports the number of live allocations.
func (m *Memory) LiveAllocs() int { return len(m.allocs) }

// claim makes [b, e) one segment holding the bytes the range holds now and
// returns its id. Every segment it overlaps must be a free one; their bytes
// move into the new segment (without copying when one contains the range)
// and what they hold outside the range stays where it is.
func (m *Memory) claim(b, e Addr, live bool) int32 {
	prev := m.pred(b)
	x := m.head
	if prev != 0 {
		x = m.segs[prev].next
		if m.segs[prev].end > b {
			x, prev = prev, m.segs[prev].prev
		}
	}
	var data []byte
	if x != 0 && m.segs[x].base <= b && m.segs[x].end >= e {
		// One segment contains the range: split it around the range.
		s := m.segs[x]
		data = s.data[b-s.base : e-s.base : e-s.base]
		m.remove(x)
		if s.base < b {
			prev = m.insert(prev, s.base, b, s.data[:b-s.base:b-s.base], false)
		}
		if e < s.end {
			m.insert(prev, e, s.end, s.data[e-s.base:], false)
		}
	} else {
		data = make([]byte, e-b)
		for x != 0 && m.segs[x].base < e {
			s := m.segs[x]
			next := s.next
			copy(data[max(s.base, b)-b:], s.data[max(b, s.base)-s.base:min(e, s.end)-s.base])
			m.remove(x)
			if s.base < b {
				prev = m.insert(prev, s.base, b, s.data[:b-s.base:b-s.base], false)
			}
			if e < s.end {
				m.insert(prev, e, s.end, s.data[e-s.base:], false)
			}
			x = next
		}
	}
	return m.insert(prev, b, e, data, live)
}

// pred returns the last segment starting before b, or 0.
func (m *Memory) pred(b Addr) int32 {
	if m.head == 0 || m.segs[m.head].base >= b {
		return 0
	}
	// Some page at or below b-1's holds a segment starting before b; from
	// that anchor, follow the list to the last one.
	p := (b - 1) >> pageShift
	for m.first[p] == 0 || m.segs[m.first[p]].base >= b {
		p--
	}
	id := m.first[p]
	for n := m.segs[id].next; n != 0 && m.segs[n].base < b; n = m.segs[n].next {
		id = n
	}
	return id
}

// insert links a new segment [b, e) after prev (0: at the head) and indexes
// its pages. The range must not overlap any segment.
func (m *Memory) insert(prev int32, b, e Addr, data []byte, live bool) int32 {
	var id int32
	if k := len(m.idle); k > 0 {
		id = m.idle[k-1]
		m.idle = m.idle[:k-1]
	} else {
		id = int32(len(m.segs))
		m.segs = append(m.segs, segment{})
	}
	next := m.head
	if prev != 0 {
		next = m.segs[prev].next
		m.segs[prev].next = id
	} else {
		m.head = id
	}
	if next != 0 {
		m.segs[next].prev = id
	}
	m.segs[id] = segment{base: b, end: e, data: data, live: live, prev: prev, next: next}
	for p := b >> pageShift; p <= (e-1)>>pageShift; p++ {
		if f := m.first[p]; f == 0 || m.segs[f].base > b {
			m.first[p] = id
		}
	}
	return id
}

// remove unlinks and unindexes segment id and releases its id.
func (m *Memory) remove(id int32) {
	s := m.segs[id]
	if s.prev != 0 {
		m.segs[s.prev].next = s.next
	} else {
		m.head = s.next
	}
	if s.next != 0 {
		m.segs[s.next].prev = s.prev
	}
	for p := s.base >> pageShift; p <= (s.end-1)>>pageShift; p++ {
		if m.first[p] == id {
			m.first[p] = 0
			if s.next != 0 && m.segs[s.next].base <= p<<pageShift|pageMask {
				m.first[p] = s.next
			}
		}
	}
	m.segs[id] = segment{}
	m.idle = append(m.idle, id)
}
