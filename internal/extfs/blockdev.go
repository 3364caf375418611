package extfs

import (
	"fmt"

	"nesc/internal/blockdev"
	"nesc/internal/sim"
)

// BlockDev is the block transport a filesystem instance is mounted on. The
// same filesystem code runs in two places in the NeSC stack:
//
//   - the hypervisor's filesystem, mounted on the physical function of the
//     device (its block I/O flows through the PF's out-of-band channel), and
//   - a guest's filesystem, mounted on a virtual disk (a VF, a virtio disk,
//     or an emulated disk).
//
// Implementations charge virtual time against the calling process ctx; a nil
// ctx is allowed for timeless (functional) use in tests and setup code.
type BlockDev interface {
	BlockSize() int
	NumBlocks() int64
	ReadBlocks(ctx *sim.Proc, lba int64, p []byte) error
	// WriteBlocks writes p (a whole number of blocks) at lba. It must not
	// modify p or keep it after returning: callers pass shared read-only
	// buffers, such as the zero image that backs newly allocated runs.
	WriteBlocks(ctx *sim.Proc, lba int64, p []byte) error
	// Flush orders previously written data onto stable storage.
	Flush(ctx *sim.Proc) error
}

// MemDev adapts a blockdev.Store into a timeless BlockDev for functional
// tests and image preparation.
type MemDev struct {
	S *blockdev.Store
}

// NewMemDev returns a MemDev over a fresh store.
func NewMemDev(blockSize int, numBlocks int64) *MemDev {
	return &MemDev{S: blockdev.NewStore(blockSize, numBlocks)}
}

// BlockSize implements BlockDev.
func (d *MemDev) BlockSize() int { return d.S.BlockSize() }

// NumBlocks implements BlockDev.
func (d *MemDev) NumBlocks() int64 { return d.S.NumBlocks() }

// ReadBlocks implements BlockDev.
func (d *MemDev) ReadBlocks(_ *sim.Proc, lba int64, p []byte) error {
	return d.S.ReadBlocks(lba, p)
}

// WriteBlocks implements BlockDev.
func (d *MemDev) WriteBlocks(_ *sim.Proc, lba int64, p []byte) error {
	return d.S.WriteBlocks(lba, p)
}

// Flush implements BlockDev.
func (d *MemDev) Flush(*sim.Proc) error { return nil }

// faultyDev wraps a BlockDev and fails writes after a countdown; the journal
// recovery tests use it to model a crash mid-update.
type faultyDev struct {
	BlockDev
	writesLeft int
}

func (d *faultyDev) WriteBlocks(ctx *sim.Proc, lba int64, p []byte) error {
	if d.writesLeft <= 0 {
		return fmt.Errorf("extfs: injected write failure")
	}
	d.writesLeft--
	return d.BlockDev.WriteBlocks(ctx, lba, p)
}
