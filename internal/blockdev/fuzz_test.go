package blockdev

import (
	"bytes"
	"slices"
	"testing"
)

// refStore is the dense reference model FuzzStore checks the sparse store
// against: every block's bytes and stored guard, plus the write log.
type refStore struct {
	bs     int
	data   []byte
	guards []uint32
	log    []writeRecord
	on     bool
}

func (r *refStore) write(lba int64, p []byte) {
	for i := 0; i*r.bs < len(p); i++ {
		b := lba + int64(i)
		blk := r.data[b*int64(r.bs) : (b+1)*int64(r.bs)]
		if r.on {
			r.log = append(r.log, writeRecord{lba: b, data: slices.Clone(blk), guard: r.guards[b]})
		}
		copy(blk, p[i*r.bs:])
		r.guards[b] = BlockGuard(blk)
	}
}

func (r *refStore) bad() []int64 {
	var out []int64
	for b := range r.guards {
		if BlockGuard(r.data[b*r.bs:(b+1)*r.bs]) != r.guards[b] {
			out = append(out, int64(b))
		}
	}
	return out
}

// FuzzStore drives random ReadBlocks/WriteBlocks, write-log, Rollback, guard
// corruption and VerifyGuards sequences against a dense reference and
// asserts identical bytes, guards and verdicts, and no panic.
func FuzzStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			return
		}
		// Block sizes give 4-, 8- and 1-block chunks; the device size is not
		// a chunk multiple.
		bs := []int{1024, 512, 4096}[int(in[0])%3]
		const nb = 37
		s := NewStore(bs, nb)
		ref := &refStore{bs: bs, data: make([]byte, bs*nb), guards: make([]uint32, nb)}
		for i := range ref.guards {
			ref.guards[i] = BlockGuard(make([]byte, bs))
		}
		in = in[1:]
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			v := int(in[0])
			in = in[1:]
			return v
		}
		for len(in) > 0 {
			switch next() % 7 {
			case 0, 1: // WriteBlocks: zeros or a pattern, sometimes out of range
				lba, n := int64(next()%(nb+4))-2, next()%9
				p := make([]byte, n*bs)
				if k := next(); k&1 == 1 {
					for i := range p {
						p[i] = byte(i/7*k + 1)
					}
				}
				ok := lba >= 0 && lba+int64(n) <= nb
				if err := s.WriteBlocks(lba, p); (err == nil) != ok {
					t.Fatalf("WriteBlocks(%d, %d blocks) = %v", lba, n, err)
				}
				if ok {
					ref.write(lba, p)
				}
			case 2: // ReadBlocks
				lba, n := int64(next()%(nb+4))-2, next()%9
				got := make([]byte, n*bs)
				ok := lba >= 0 && lba+int64(n) <= nb
				err := s.ReadBlocks(lba, got)
				if (err == nil) != ok {
					t.Fatalf("ReadBlocks(%d, %d blocks) = %v", lba, n, err)
				}
				if ok && !bytes.Equal(got, ref.data[lba*int64(bs):(lba+int64(n))*int64(bs)]) {
					t.Fatalf("ReadBlocks(%d, %d blocks) differs from reference", lba, n)
				}
			case 3: // EnableWriteLog
				s.EnableWriteLog()
				ref.on, ref.log = true, ref.log[:0]
			case 4: // Rollback
				n := next() % 12
				want := min(n, len(ref.log))
				for i := 0; i < want; i++ {
					rec := ref.log[len(ref.log)-1-i]
					copy(ref.data[rec.lba*int64(bs):], rec.data)
					ref.guards[rec.lba] = rec.guard
				}
				ref.log = ref.log[:len(ref.log)-want]
				if got := s.Rollback(n); got != want {
					t.Fatalf("Rollback(%d) = %d, want %d", n, got, want)
				}
			case 5: // corrupt one stored guard tag, present or absent block
				b, v := next()%nb, uint32(next())
				s.guards[b] ^= v
				ref.guards[b] ^= v
			case 6: // VerifyGuards
				if got, want := s.VerifyGuards(), ref.bad(); !slices.Equal(got, want) {
					t.Fatalf("VerifyGuards = %v, want %v", got, want)
				}
			}
			if s.WriteLogLen() != len(ref.log) {
				t.Fatalf("WriteLogLen = %d, want %d", s.WriteLogLen(), len(ref.log))
			}
		}
		all := make([]byte, bs*nb)
		if err := s.ReadBlocks(0, all); err != nil || !bytes.Equal(all, ref.data) {
			t.Fatalf("final image differs from reference (%v)", err)
		}
		for b := int64(0); b < nb; b++ {
			if s.Guard(b) != ref.guards[b] {
				t.Fatalf("guard of block %d = %#x, want %#x", b, s.Guard(b), ref.guards[b])
			}
		}
		if got, want := s.VerifyGuards(), ref.bad(); !slices.Equal(got, want) {
			t.Fatalf("final VerifyGuards = %v, want %v", got, want)
		}
	})
}
