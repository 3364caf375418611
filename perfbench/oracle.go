package main

import "encoding/binary"

// oracle tracks, for every block of one virtual disk, the version of the
// last acknowledged write (0 = never written, so the block must read back as
// zeros). A block's expected content is a pure function of (salt, block,
// version), so payloads are generated and checked without storing them and
// without reseeding a PRNG per payload.
type oracle struct {
	salt uint64
	ver  []uint32
	next uint32
}

func newOracle(salt uint64, blocks int64) *oracle {
	return &oracle{salt: salt, ver: make([]uint32, blocks)}
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// blockStream seeds the word stream of block lba at version v.
func (o *oracle) blockStream(lba int64, v uint32) uint64 {
	return mix(o.salt ^ uint64(lba)*0x9e3779b97f4a7c15 ^ uint64(v)<<40)
}

// fill writes a fresh version of blocks [lba, lba+len(p)/bs) into p and
// returns the version to commit once the write is acknowledged.
func (o *oracle) fill(p []byte, lba int64, bs int) uint32 {
	o.next++
	v := o.next
	for b := 0; b*bs < len(p); b++ {
		x := o.blockStream(lba+int64(b), v)
		blk := p[b*bs : (b+1)*bs]
		for i := 0; i < bs; i += 8 {
			x += 0x9e3779b97f4a7c15
			binary.LittleEndian.PutUint64(blk[i:], mix(x))
		}
	}
	return v
}

// commit records an acknowledged write of n blocks at lba.
func (o *oracle) commit(lba int64, n int, v uint32) {
	for i := 0; i < n; i++ {
		o.ver[lba+int64(i)] = v
	}
}

// check reports whether p, read from lba, holds the last acknowledged write
// of every block (zeros for blocks never written).
func (o *oracle) check(p []byte, lba int64, bs int) bool {
	for b := 0; b*bs < len(p); b++ {
		blk := p[b*bs : (b+1)*bs]
		v := o.ver[lba+int64(b)]
		if v == 0 {
			for i := 0; i < bs; i += 8 {
				if binary.LittleEndian.Uint64(blk[i:]) != 0 {
					return false
				}
			}
			continue
		}
		x := o.blockStream(lba+int64(b), v)
		for i := 0; i < bs; i += 8 {
			x += 0x9e3779b97f4a7c15
			if binary.LittleEndian.Uint64(blk[i:]) != mix(x) {
				return false
			}
		}
	}
	return true
}

// rng is a splitmix64 stream: cheap, seedable, and independent per client,
// so a client's op sequence never depends on how the simulation interleaves
// clients.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng {
	var s uint64
	for _, p := range parts {
		s = mix(s ^ p + 0x9e3779b97f4a7c15)
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// chance returns true with probability pct/100.
func (r *rng) chance(pct int) bool { return r.next()%100 < uint64(pct) }
