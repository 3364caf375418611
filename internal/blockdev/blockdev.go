// Package blockdev models the storage medium behind the NeSC controller.
//
// The paper's prototype backs the controller with 1 GB of on-board DDR3 and
// explicitly does "not emulate a specific access latency technology" — the
// medium is a raw logical-block-address space with a latency and a bandwidth.
// We split the model in two:
//
//   - Store: the functional content (bytes per LBA), synchronous and
//     timeless, shared by the device pipeline and by white-box tests.
//   - Medium: the timed access port, with per-operation latency and
//     direction-specific bandwidth serialization. The Figure-2 experiment
//     sweeps the bandwidth of a Medium to emulate storage devices of
//     different speeds, just as the paper throttles an in-memory disk.
package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"

	"nesc/internal/fault"
	"nesc/internal/sim"
)

// castagnoli is the CRC-32C polynomial table used for T10 DIF-style guard
// tags (the same polynomial real protection-information formats use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BlockGuard computes the guard tag of one block image.
func BlockGuard(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// writeRecord is one block's pre-image, captured when write logging is on so
// a crash harness can roll the store back to an earlier consistent point.
type writeRecord struct {
	lba   int64
	data  []byte
	guard uint32
}

const (
	// chunkTarget is the size of one lazily allocated unit of block storage.
	chunkTarget = 4096
	// slabChunks chunks share one backing array, so the collector tracks a
	// few large objects instead of one per chunk.
	slabShift  = 6
	slabChunks = 1 << slabShift
)

// Store is the functional block space: numBlocks blocks of blockSize bytes,
// each carrying an out-of-band CRC-32C guard tag maintained on write.
//
// Block contents are stored sparsely in chunks of about 4 KiB, allocated on
// the first non-zero write. An absent chunk reads as zeros, and its blocks'
// stored guards are the zero block's guard until they are written.
type Store struct {
	blockSize   int
	numBlocks   int64
	chunkBlocks int64
	chunkBytes  int
	// chunkOf[c] is 1 + the storage slot of chunk c, or 0 while the chunk is
	// absent (all zeros).
	chunkOf []int32
	slabs   [][]byte
	used    int32
	// zeros is one zero chunk, never written.
	zeros     []byte
	zeroGuard uint32
	guards    []uint32

	logging  bool
	writeLog []writeRecord
}

// NewStore returns a zeroed block space.
func NewStore(blockSize int, numBlocks int64) *Store {
	if blockSize <= 0 || numBlocks <= 0 {
		panic("blockdev: invalid geometry")
	}
	cb := int64(max(1, chunkTarget/blockSize))
	s := &Store{
		blockSize:   blockSize,
		numBlocks:   numBlocks,
		chunkBlocks: cb,
		chunkBytes:  int(cb) * blockSize,
		chunkOf:     make([]int32, (numBlocks+cb-1)/cb),
		zeros:       make([]byte, int(cb)*blockSize),
		guards:      make([]uint32, numBlocks),
	}
	s.zeroGuard = BlockGuard(s.zeros[:blockSize])
	for i := range s.guards {
		s.guards[i] = s.zeroGuard
	}
	return s
}

// BlockSize reports the block size in bytes.
func (s *Store) BlockSize() int { return s.blockSize }

// NumBlocks reports the number of addressable blocks.
func (s *Store) NumBlocks() int64 { return s.numBlocks }

func (s *Store) checkRange(lba int64, n int) error {
	if n%s.blockSize != 0 {
		return fmt.Errorf("blockdev: buffer of %d bytes not a multiple of block size %d", n, s.blockSize)
	}
	blocks := int64(n / s.blockSize)
	if lba < 0 || lba+blocks > s.numBlocks {
		return fmt.Errorf("blockdev: access [%d, %d) outside device of %d blocks", lba, lba+blocks, s.numBlocks)
	}
	return nil
}

// chunk returns the bytes of chunk c, or nil while it is absent. With
// create set an absent chunk is allocated (zeroed) first.
func (s *Store) chunk(c int64, create bool) []byte {
	slot := s.chunkOf[c]
	if slot == 0 {
		if !create {
			return nil
		}
		if s.used&(slabChunks-1) == 0 {
			s.slabs = append(s.slabs, make([]byte, slabChunks*s.chunkBytes))
		}
		s.used++
		slot = s.used
		s.chunkOf[c] = slot
	}
	slot--
	off := int(slot&(slabChunks-1)) * s.chunkBytes
	return s.slabs[slot>>slabShift][off : off+s.chunkBytes]
}

// each calls fn for every piece of [lba, lba+len(p)/blockSize) that falls in
// one chunk: the chunk index, the byte offset of the piece inside the chunk,
// and the matching window of p.
func (s *Store) each(lba int64, p []byte, fn func(c int64, off int, q []byte)) {
	bs := int64(s.blockSize)
	for len(p) > 0 {
		c := lba / s.chunkBlocks
		in := lba - c*s.chunkBlocks
		n := min(int64(len(p)), (s.chunkBlocks-in)*bs)
		fn(c, int(in*bs), p[:n])
		lba += n / bs
		p = p[n:]
	}
}

// readRaw copies blocks starting at lba into p (range already checked).
func (s *Store) readRaw(lba int64, p []byte) {
	s.each(lba, p, func(c int64, off int, q []byte) {
		if ch := s.chunk(c, false); ch != nil {
			copy(q, ch[off:])
		} else {
			clear(q)
		}
	})
}

// writeRaw stores p at lba (range already checked). Zero pieces that land in
// absent chunks store nothing: those blocks already read as zeros.
func (s *Store) writeRaw(lba int64, p []byte) {
	s.each(lba, p, func(c int64, off int, q []byte) {
		ch := s.chunk(c, false)
		if ch == nil {
			if bytes.Equal(q, s.zeros[:len(q)]) {
				return
			}
			ch = s.chunk(c, true)
		}
		copy(ch[off:], q)
	})
}

// ReadBlocks copies whole blocks starting at lba into p (whose length must
// be a block multiple).
func (s *Store) ReadBlocks(lba int64, p []byte) error {
	if err := s.checkRange(lba, len(p)); err != nil {
		return err
	}
	s.readRaw(lba, p)
	return nil
}

// WriteBlocks copies whole blocks from p to the store starting at lba,
// recomputing each block's guard tag (and logging pre-images when the crash
// write log is enabled). p is not retained.
func (s *Store) WriteBlocks(lba int64, p []byte) error {
	if err := s.checkRange(lba, len(p)); err != nil {
		return err
	}
	bs := int64(s.blockSize)
	blocks := int64(len(p)) / bs
	if s.logging {
		for i := int64(0); i < blocks; i++ {
			b := lba + i
			pre := make([]byte, bs)
			s.readRaw(b, pre)
			s.writeLog = append(s.writeLog, writeRecord{lba: b, data: pre, guard: s.guards[b]})
		}
	}
	s.writeRaw(lba, p)
	for i := int64(0); i < blocks; i++ {
		s.guards[lba+i] = BlockGuard(p[i*bs : (i+1)*bs])
	}
	return nil
}

// Guard returns the stored guard tag for one block.
func (s *Store) Guard(lba int64) uint32 { return s.guards[lba] }

// VerifyGuards recomputes every block's guard and returns the LBAs whose
// stored tag no longer matches the data — the full-device scrub/fsck check
// used by the crash harness. A clean device returns an empty slice. Blocks
// of absent chunks hold zeros, so their stored tag is compared with the zero
// block's guard without reading anything.
func (s *Store) VerifyGuards() []int64 {
	var bad []int64
	bs := s.blockSize
	for c := range s.chunkOf {
		ch := s.chunk(int64(c), false)
		first := int64(c) * s.chunkBlocks
		for b := first; b < min(first+s.chunkBlocks, s.numBlocks); b++ {
			want := s.zeroGuard
			if ch != nil {
				off := int(b-first) * bs
				want = BlockGuard(ch[off : off+bs])
			}
			if want != s.guards[b] {
				bad = append(bad, b)
			}
		}
	}
	return bad
}

// EnableWriteLog starts recording per-block pre-images on every write. The
// log models the device's completion-ordered write stream: a crash that
// loses the last j block writes is simulated by Rollback(j).
func (s *Store) EnableWriteLog() {
	s.logging = true
	s.writeLog = s.writeLog[:0]
}

// WriteLogLen reports how many block writes the log currently holds.
func (s *Store) WriteLogLen() int { return len(s.writeLog) }

// Rollback undoes the last n logged block writes (restoring data and guard
// pre-images) and truncates them from the log. It returns how many writes
// were actually undone (capped by the log length).
func (s *Store) Rollback(n int) int {
	if n > len(s.writeLog) {
		n = len(s.writeLog)
	}
	for i := 0; i < n; i++ {
		rec := s.writeLog[len(s.writeLog)-1-i]
		s.writeRaw(rec.lba, rec.data)
		s.guards[rec.lba] = rec.guard
	}
	s.writeLog = s.writeLog[:len(s.writeLog)-n]
	return n
}

// MediumParams sets the timing of the access port.
type MediumParams struct {
	// ReadLatency / WriteLatency are fixed per-operation costs (command
	// decode, row activation, ...).
	ReadLatency  sim.Time
	WriteLatency sim.Time
	// ReadBandwidth / WriteBandwidth serialize data movement, bytes/second.
	ReadBandwidth  float64
	WriteBandwidth float64
}

// DefaultMediumParams matches the prototype's on-board DDR3 port: the medium
// slightly out-runs the controller so the PCIe/controller path, not the
// medium, sets the ~800 MB/s read and ~1 GB/s write peaks.
func DefaultMediumParams() MediumParams {
	return MediumParams{
		ReadLatency:    300 * sim.Nanosecond,
		WriteLatency:   200 * sim.Nanosecond,
		ReadBandwidth:  1.0e9,
		WriteBandwidth: 1.4e9,
	}
}

// ErrMedium marks an access that failed at the medium itself (a transient or
// latent sector error), as opposed to a range/programming error. Callers use
// IsMediumError to decide whether a retry can help.
var ErrMedium = errors.New("blockdev: medium error")

// IsMediumError reports whether err is a (possibly wrapped) medium error.
func IsMediumError(err error) bool { return errors.Is(err, ErrMedium) }

// ErrIntegrity marks a read whose payload failed guard-tag verification: the
// medium returned data, but the data is wrong. Like medium errors it is
// retryable (a transient flip won't recur), and like them it is distinct
// from range/programming errors.
var ErrIntegrity = errors.New("blockdev: integrity error")

// IsIntegrityError reports whether err is a (possibly wrapped) guard-tag
// verification failure.
func IsIntegrityError(err error) bool { return errors.Is(err, ErrIntegrity) }

// Medium is the timed access port to a Store.
type Medium struct {
	eng       *sim.Engine
	store     *Store
	readPort  *sim.Link
	writePort *sim.Link
	params    MediumParams
	inj       *fault.Injector
	noGuard   bool
	// dev is this medium's device index within a multi-device fabric; the
	// injector's DeviceAccess gate (kill/partition latches) keys on it.
	dev int

	// Reads/Writes count operations; ReadBytes/WriteBytes count payloads.
	Reads, Writes         int64
	ReadBytes, WriteBytes int64
	// ReadFaults/WriteFaults count operations failed by fault injection.
	ReadFaults, WriteFaults int64
	// IntegrityErrors counts reads that failed guard verification;
	// RecoveryReads counts slow-path ECC recovery reads.
	IntegrityErrors, RecoveryReads int64

	idleReads, idleWrites []*mediumOp
	idleWaits             []*waiter
}

// NewMedium wraps store with a timed port on engine eng.
func NewMedium(eng *sim.Engine, store *Store, p MediumParams) *Medium {
	return &Medium{
		eng:       eng,
		store:     store,
		readPort:  sim.NewLink(eng, p.ReadBandwidth, p.ReadLatency, 0),
		writePort: sim.NewLink(eng, p.WriteBandwidth, p.WriteLatency, 0),
		params:    p,
	}
}

// SetInjector installs a fault injector on the access port (nil disables
// injection).
func (m *Medium) SetInjector(inj *fault.Injector) { m.inj = inj }

// SetGuardCheck enables or disables read-side guard verification (on by
// default; the integrity ablation bench turns it off).
func (m *Medium) SetGuardCheck(on bool) { m.noGuard = !on }

// SetDeviceIndex assigns the medium's device identity within a multi-device
// fabric (default 0). Device-kill and partition faults key on it.
func (m *Medium) SetDeviceIndex(dev int) { m.dev = dev }

// DeviceIndex reports the medium's device identity.
func (m *Medium) DeviceIndex() int { return m.dev }

// deviceGate consults the injector's device-level latches. A dead or
// partitioned device fails every access loudly — the DTU's bounded retries
// then surface StatusMediumError, which is what drives the fabric's health
// state machine.
func (m *Medium) deviceGate() bool {
	return m.inj.DeviceAccess(m.dev, m.eng.Now()).Fault
}

// Store returns the functional content behind the port.
func (m *Medium) Store() *Store { return m.store }

// Params returns the current timing parameters.
func (m *Medium) Params() MediumParams { return m.params }

// SetBandwidth reconfigures both directions (the Figure-2 throttle sweep).
func (m *Medium) SetBandwidth(read, write float64) {
	m.params.ReadBandwidth = read
	m.params.WriteBandwidth = write
	m.readPort.SetBandwidth(read)
	m.writePort.SetBandwidth(write)
}

// finish invokes done, optionally after an injected extra delay.
func (m *Medium) finish(delay sim.Time, done func()) {
	if delay > 0 {
		m.eng.After(delay, done)
		return
	}
	done()
}

// Read fetches len(p) bytes (a whole number of blocks) starting at lba and
// invokes done when the data has left the medium (or the medium has reported
// an error, still after the access time). The copy into p happens at
// completion time. A synchronous non-nil return means the request itself was
// malformed (range/alignment) and done will not be called.
func (m *Medium) Read(lba int64, p []byte, done func(error)) error {
	if err := m.store.checkRange(lba, len(p)); err != nil {
		return err
	}
	m.Reads++
	m.ReadBytes += int64(len(p))
	if m.deviceGate() {
		// Dead or partitioned device: fail after the access latency without
		// drawing from the per-site medium streams.
		m.readPort.Transfer(int64(len(p)), func() {
			m.ReadFaults++
			done(fmt.Errorf("%w: device %d unreachable, read at lba %d", ErrMedium, m.dev, lba))
		})
		return nil
	}
	op := m.op(false, len(p))
	op.lba, op.p, op.done = lba, p, done
	op.dec = m.inj.MediumAccess(false, lba, int64(len(p)/m.store.blockSize))
	// Fail-slow profiles add chronic extra latency on top of any one-shot
	// injected delay; the base cost the slowdown factor scales is the
	// operation's own service time (fixed latency + serialization).
	op.slow = m.inj.DegradeDelay(m.dev,
		m.params.ReadLatency+sim.BytesTime(int64(len(p)), m.params.ReadBandwidth), m.eng.Now())
	m.readPort.Transfer(int64(len(p)), op.transferred)
	return nil
}

// Write stores len(p) bytes (a whole number of blocks) at lba and invokes
// done when the medium has absorbed them (or reported an error). The data is
// snapshotted at submission; a faulted write leaves the store untouched.
func (m *Medium) Write(lba int64, p []byte, done func(error)) error {
	if err := m.store.checkRange(lba, len(p)); err != nil {
		return err
	}
	m.Writes++
	m.WriteBytes += int64(len(p))
	if m.deviceGate() {
		m.writePort.Transfer(int64(len(p)), func() {
			m.WriteFaults++
			done(fmt.Errorf("%w: device %d unreachable, write at lba %d", ErrMedium, m.dev, lba))
		})
		return nil
	}
	op := m.op(true, len(p))
	op.lba, op.done = lba, done
	op.dec = m.inj.MediumAccess(true, lba, int64(len(p)/m.store.blockSize))
	op.slow = m.inj.DegradeDelay(m.dev,
		m.params.WriteLatency+sim.BytesTime(int64(len(p)), m.params.WriteBandwidth), m.eng.Now())
	copy(op.data, p)
	m.writePort.Transfer(int64(len(p)), op.transferred)
	return nil
}

// mediumOp is one in-flight Read or Write: its parameters, a write's payload
// snapshot and the completion callbacks, built once per op. Completed ops
// wait on short idle lists for reuse, so steady-state accesses allocate
// nothing.
type mediumOp struct {
	m     *Medium
	write bool
	lba   int64
	// p is a read's destination; data is a write's snapshot, owned by the op.
	p, data     []byte
	dec         fault.MediumDecision
	slow        sim.Time
	done        func(error)
	transferred func()
	complete    func()
}

// maxIdleOps caps each idle list; a completed op finding its list full is
// dropped, so mixed-size write traffic cannot grow it without limit.
const maxIdleOps = 32

// op returns an idle op (for a write, one whose snapshot holds exactly n
// bytes) or a new one.
func (m *Medium) op(write bool, n int) *mediumOp {
	idle := &m.idleReads
	if write {
		idle = &m.idleWrites
	}
	for i := len(*idle) - 1; i >= 0; i-- {
		if op := (*idle)[i]; !write || len(op.data) == n {
			last := len(*idle) - 1
			(*idle)[i] = (*idle)[last]
			(*idle)[last] = nil
			*idle = (*idle)[:last]
			return op
		}
	}
	op := &mediumOp{m: m, write: write}
	if write {
		op.data = make([]byte, n)
	}
	op.transferred = func() { m.finish(op.dec.Delay+op.slow, op.complete) }
	op.complete = op.finishOp
	return op
}

// finishOp applies the access, returns the op to its idle list and reports
// to the caller.
func (op *mediumOp) finishOp() {
	m, done := op.m, op.done
	var err error
	idle := &m.idleWrites
	if op.write {
		err = op.applyWrite()
	} else {
		err = op.applyRead()
		idle = &m.idleReads
	}
	op.p, op.done, op.dec = nil, nil, fault.MediumDecision{}
	if len(*idle) < maxIdleOps {
		*idle = append(*idle, op)
	}
	done(err)
}

func (op *mediumOp) applyWrite() error {
	m := op.m
	if op.dec.Fault {
		m.WriteFaults++
		return fmt.Errorf("%w: write of %d blocks at lba %d", ErrMedium, len(op.data)/m.store.blockSize, op.lba)
	}
	if err := m.store.WriteBlocks(op.lba, op.data); err != nil {
		panic(err)
	}
	return nil
}

func (op *mediumOp) applyRead() error {
	m, lba, p := op.m, op.lba, op.p
	if op.dec.Fault {
		m.ReadFaults++
		return fmt.Errorf("%w: read of %d blocks at lba %d", ErrMedium, len(p)/m.store.blockSize, lba)
	}
	if err := m.store.ReadBlocks(lba, p); err != nil {
		panic(err)
	}
	bs := m.store.blockSize
	for _, b := range op.dec.CorruptBlocks {
		off := int(b-lba) * bs
		fault.Flip(p[off:off+bs], uint64(b))
	}
	if !m.noGuard {
		for i := 0; i*bs < len(p); i++ {
			if BlockGuard(p[i*bs:(i+1)*bs]) != m.store.guards[lba+int64(i)] {
				m.IntegrityErrors++
				return fmt.Errorf("%w: guard mismatch at lba %d", ErrIntegrity, lba+int64(i))
			}
		}
	}
	return nil
}

// ReadP and WriteP are process-style forms.

// waiter carries one ReadP/WriteP result from the completion callback back
// to the blocked process; waiters are reused so the P-forms allocate
// nothing.
type waiter struct {
	err  error
	done func()
	cb   func(error)
}

func (m *Medium) waiter() *waiter {
	if k := len(m.idleWaits); k > 0 {
		w := m.idleWaits[k-1]
		m.idleWaits[k-1] = nil
		m.idleWaits = m.idleWaits[:k-1]
		return w
	}
	w := &waiter{}
	w.cb = func(err error) {
		w.err = err
		w.done()
	}
	return w
}

// wait blocks p on one callback-form operation started by start.
func (m *Medium) wait(p *sim.Proc, start func(cb func(error)) error) error {
	w := m.waiter()
	p.Wait(func(done func()) {
		w.done = done
		if err := start(w.cb); err != nil {
			w.err = err
			done()
		}
	})
	err := w.err
	w.err, w.done = nil, nil
	if len(m.idleWaits) < maxIdleOps {
		m.idleWaits = append(m.idleWaits, w)
	}
	return err
}

// ReadP performs Read and blocks the process until completion.
func (m *Medium) ReadP(p *sim.Proc, lba int64, buf []byte) error {
	return m.wait(p, func(cb func(error)) error { return m.Read(lba, buf, cb) })
}

// WriteP performs Write and blocks the process until completion.
func (m *Medium) WriteP(p *sim.Proc, lba int64, buf []byte) error {
	return m.wait(p, func(cb func(error)) error { return m.Write(lba, buf, cb) })
}

// recoveryPenalty is the extra per-operation latency of a heroic recovery
// read relative to a normal one (drive-internal ECC retries, read-retry with
// shifted thresholds, ...).
const recoveryPenalty = 8

// RecoverP performs a slow-path recovery read: the medium's internal ECC
// machinery reconstructs the true sector contents, bypassing whatever made
// the fast-path read come back corrupted. It costs recoveryPenalty times the
// normal read latency plus the transfer time, consults no fault injector,
// and always returns the store's true bytes. Scrubbers use it to source the
// repair data for a rewrite.
func (m *Medium) RecoverP(p *sim.Proc, lba int64, buf []byte) error {
	if err := m.store.checkRange(lba, len(buf)); err != nil {
		return err
	}
	m.Reads++
	m.RecoveryReads++
	m.ReadBytes += int64(len(buf))
	p.Wait(func(done func()) {
		m.readPort.Transfer(int64(len(buf)), func() {
			m.eng.After(recoveryPenalty*m.params.ReadLatency, done)
		})
	})
	return m.store.ReadBlocks(lba, buf)
}
