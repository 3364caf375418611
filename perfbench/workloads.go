package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"nesc/internal/bench"
	"nesc/internal/extent"
	"nesc/internal/guest"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/slo"
)

// workload is one named input set. A round runs the workload's fixed op
// count on a fresh platform; the first `rounds` rounds use sub-seeds
// 0..rounds-1 and together form the simulated sample, later rounds repeat
// them to time the simulator for the rest of the measuring window.
type workload struct {
	name   string
	rounds int
	run    func(e *env) error
}

var workloads = []workload{
	// The direct-assignment hot path: 16 clients, 70/30 reads/writes on
	// preallocated images; the hypervisor stays idle.
	{name: "tenant-mix-4k", rounds: 1, run: tenants(false, tenantMixOps, tenantMixWrites, 0)},
	// The same tenants on sparse images, 70 % writes: every first write to a
	// slot takes translation misses the hypervisor services.
	{name: "thin-fill-4k", rounds: 16, run: tenants(true, thinFillOps, thinFillWrites, 50)},
	{name: "backends-qd1", rounds: 1, run: backendsQD1},
}

// Workload sizing. Every count is fixed, so a round's simulated work never
// depends on host speed.
const (
	tenantVMs       = 4
	clientsPerVM    = 4
	tenantImage     = 16 << 10 // blocks: 16 MB images
	slotBlocks      = 4        // 4 KB ops
	tenantMixOps    = 1250     // per client per round
	tenantMixWrites = 30       // percent
	thinFillOps     = 40       // per client per round
	thinFillWrites  = 70       // percent

	rawImage = 64 << 10 // blocks: the 64 MB preallocated file of the paper's Fig. 9
)

// Backend phases of backends-qd1, in run order, with each phase's op counts:
// small 1 KB random ops, then large 32 KB sequential reads and as many
// sequential writes. The counts give every phase about the same simulated
// time (about 16 ms), so a regression in any one phase moves
// sim_op_mean_us by about a quarter of its size, and the read and write
// medians fall well inside the NeSC 1 KB latency rather than on the step
// between the fast and the slow backends.
var rawBackends = []struct {
	name         string
	small, large int
}{
	{"host", 1024, 64},
	{"nesc", 1024, 64},
	{"virtio", 128, 32},
	{"emulation", 48, 16},
}

// opRec is one completed operation, timed on the simulated clock from guest
// submit to completion.
type opRec struct {
	lat   sim.Time
	write bool
	class int8 // backends-qd1: backend*2 + (1 for 32 KB); -1 elsewhere
}

// Layer counters, read around the timed phase.
const (
	cEvents = iota
	cMallocs
	cAllocBytes
	cBTLBHits
	cBTLBMisses
	cWalkReads
	cMisses
	cTraps
	cGuestReqs
	cMediumRead
	cMediumWrite
	cDMA
	numCounters
)

// counters holds cumulative layer counters, indexed by the c* constants.
type counters [numCounters]int64

// segSum is the device-side attribution (VF requests only) accumulated over
// a window of the timed phase.
type segSum struct {
	reqs, total int64
	seg         [slo.NumSegments]int64
}

// roundResult is everything one round measured.
type roundResult struct {
	sub    int
	setup  [4]float64 // host CPU seconds: platform, hostfs format, images, VM attach
	wall   float64    // host wall-clock seconds of the timed phase
	cpu    float64    // host CPU seconds of the timed phase
	simDur sim.Time   // simulated duration of the timed phase
	ops    []opRec
	digest uint64
	failed int64
	// First failures, for the report.
	problems            []string
	userRead, userWrite int64
	delta               counters

	// Traced rounds only.
	seg         segSum
	residualLat sim.Time // summed latency of the ops the residual covers
	residualOps int64
	residualDev int64 // device time of the same ops
	treeNodes   int
	lookupNs    float64
}

func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// env is a workload's view of the round it runs in.
type env struct {
	pl     *bench.Platform
	p      *sim.Proc
	seed   uint64
	res    *roundResult
	tr     *tracer // nil when untraced
	parent int     // span of the round
	vms    []*hypervisor.VM
	req    uint64
}

// phase runs one setup step, adding its host CPU time to setup[i].
func (e *env) phase(i int, name string, fn func() error) error {
	sp := e.tr.begin(name, e.parent, 0, e.p.Now())
	c0 := cpuSeconds()
	err := fn()
	e.res.setup[i] += cpuSeconds() - c0
	e.tr.end(sp, e.p.Now())
	return err
}

// mkVMs creates n images and attaches one NeSC VM to each.
func (e *env) mkVMs(n int, blocks uint64, sparse bool) error {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/tenant%d.img", i)
	}
	if err := e.phase(2, "MkImage", func() error {
		for i, path := range paths {
			if err := e.pl.MkImage(e.p, path, uint32(i+1), blocks, sparse); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return e.phase(3, "NewVM", func() error {
		for i, path := range paths {
			vm, err := e.pl.Hyp.NewVM(e.p, path, hypervisor.VMConfig{
				Backend: hypervisor.BackendDirect, DiskPath: path, UID: uint32(i + 1), Guest: e.pl.Cfg.Guest,
			})
			if err != nil {
				return err
			}
			e.vms = append(e.vms, vm)
		}
		return nil
	})
}

// cpuSeconds is the process's user plus system CPU time, all threads. Unlike
// wall-clock time it excludes time the host's hypervisor steals from this
// machine's CPUs, which on a shared host varies by tens of percent within
// minutes.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func (e *env) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pl := e.pl
	var c counters
	c[cEvents] = pl.Eng.Stepped
	c[cMallocs], c[cAllocBytes] = int64(ms.Mallocs), int64(ms.TotalAlloc)
	c[cBTLBHits], c[cBTLBMisses] = pl.Ctl.BTLBStats.Hits, pl.Ctl.BTLBStats.Misses
	c[cWalkReads] = pl.Ctl.WalkNodeReads
	c[cMisses] = pl.Hyp.MissInterrupts
	c[cMediumRead], c[cMediumWrite] = pl.Ctl.Medium.ReadBytes, pl.Ctl.Medium.WriteBytes
	c[cDMA] = pl.Fab.DMAReadBytes + pl.Fab.DMAWriteBytes
	for _, vm := range e.vms {
		c[cGuestReqs] += vm.Kernel.Requests
		if vm.EmulDrv != nil {
			c[cTraps] += vm.EmulDrv.Traps
		}
		if vm.VioDrv != nil {
			c[cTraps] += vm.VioDrv.Kicks
		}
	}
	return c
}

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// vfSegments sums the attribution rows of every VF (the PF's own requests,
// row 0, are host and hypervisor traffic). Zero when untraced.
func (e *env) vfSegments() segSum {
	var s segSum
	for _, r := range e.pl.Cfg.Attrib.Rows() {
		if r.VF == 0 {
			continue
		}
		s.reqs += r.Requests
		s.total += r.TotalNs
		for i, v := range r.SegNs {
			s.seg[i] += v
		}
	}
	return s
}

func (s segSum) minus(o segSum) segSum {
	d := segSum{reqs: s.reqs - o.reqs, total: s.total - o.total}
	for i := range d.seg {
		d.seg[i] = s.seg[i] - o.seg[i]
	}
	return d
}

// timed runs the measured phase: layer counters, host time, simulated time
// and device attribution are all taken around it.
func (e *env) timed(fn func()) {
	// Finish the collection that set-up's allocations started, so no GC
	// cycle is in flight when timing starts.
	runtime.GC()
	before, segs := e.snapshot(), e.vfSegments()
	t0, c0, s0 := time.Now(), cpuSeconds(), e.p.Now()
	fn()
	e.res.wall = time.Since(t0).Seconds()
	e.res.cpu = cpuSeconds() - c0
	e.res.simDur = e.p.Now() - s0
	e.res.delta = e.snapshot().minus(before)
	e.res.seg = e.vfSegments().minus(segs)
}

// record files one completed op.
func (e *env) record(lat sim.Time, write bool, class int8, n int) {
	e.res.ops = append(e.res.ops, opRec{lat: lat, write: write, class: class})
	if write {
		e.res.userWrite += int64(n)
	} else {
		e.res.userRead += int64(n)
	}
}

// submit issues one block-layer request from a guest and returns its
// simulated latency.
func (e *env) submit(p *sim.Proc, k *guest.Kernel, write bool, lba int64, buf guest.Buffer) (sim.Time, error) {
	e.req++
	sp := e.tr.begin("SubmitAligned", e.parent, e.req, p.Now())
	t0 := p.Now()
	err := k.SubmitAligned(p, write, lba, buf)
	e.tr.end(sp, p.Now())
	return p.Now() - t0, err
}

// disk is one tenant VM with its oracle and the slice of its image each
// client owns (clients never share blocks, so every read has exactly one
// correct answer).
type disk struct {
	vm *hypervisor.VM
	o  *oracle
}

// tenantClient is one closed-loop client: it issues its next 4 KB op only
// after the previous one completes. Writes go to uniform random slots of the
// client's own range; a read either re-reads a slot the client wrote
// (readBackPct of reads, once it has written any) or a uniform random slot.
func (e *env) tenantClient(p *sim.Proc, d *disk, id uint64, first, slots int64, ops, writePct, readBackPct int) {
	r := newRNG(e.seed, uint64(e.res.sub), id)
	bs := e.pl.Cfg.Core.BlockSize
	buf := d.vm.Kernel.AllocBuffer(int64(slotBlocks * bs))
	var written []int64
	for i := 0; i < ops; i++ {
		write := r.chance(writePct)
		slot := first + r.intn(slots)
		if !write && len(written) > 0 && r.chance(readBackPct) {
			slot = written[r.intn(int64(len(written)))]
		}
		lba := slot * slotBlocks
		var v uint32
		if write {
			v = d.o.fill(buf.Data, lba, bs)
		}
		lat, err := e.submit(p, d.vm.Kernel, write, lba, buf)
		switch {
		case err != nil:
			e.res.fail("%s lba %d write=%v: %v", d.vm.Name, lba, write, err)
		case write:
			d.o.commit(lba, slotBlocks, v)
			written = append(written, slot)
		case !d.o.check(buf.Data, lba, bs):
			e.res.fail("%s lba %d: read returned stale or foreign data", d.vm.Name, lba)
		}
		e.record(lat, write, -1, len(buf.Data))
	}
}

// runTenants drives clientsPerVM clients on every VM until all finish.
func (e *env) runTenants(ops, writePct, readBackPct int) {
	slots := int64(tenantImage / slotBlocks / clientsPerVM)
	wg := sim.NewWaitGroup(e.pl.Eng)
	for v, vm := range e.vms {
		d := &disk{vm: vm, o: newOracle(mix(e.seed^uint64(v+1)), tenantImage)}
		for c := 0; c < clientsPerVM; c++ {
			id, first := uint64(v*clientsPerVM+c), int64(c)*slots
			wg.Add(1)
			e.pl.Eng.Go(fmt.Sprintf("client-%d", id), func(p *sim.Proc) {
				e.tenantClient(p, d, id, first, slots, ops, writePct, readBackPct)
				wg.Done()
			})
		}
	}
	wg.WaitFor(e.p)
}

// treeStats records the final extent trees' size and times host-side
// lookups on them (traced rounds only).
func (e *env) treeStats() {
	if e.tr == nil {
		return
	}
	r := newRNG(e.seed, 0x10c)
	const lookups = 20000
	var n int
	var dur time.Duration
	for _, vm := range e.vms {
		if vm.VFIdx < 0 {
			continue
		}
		t := e.pl.Hyp.VFTree(vm.VFIdx)
		e.res.treeNodes += t.Nodes()
		size := int64(vm.Kernel.Drv.CapacityBlocks())
		t0 := time.Now()
		for i := 0; i < lookups; i++ {
			if _, err := extent.Lookup(e.pl.Mem, t.Root(), t.Fanout(), uint64(r.intn(size))); err != nil {
				e.res.fail("extent lookup: %v", err)
				return
			}
		}
		dur += time.Since(t0)
		n += lookups
	}
	if n > 0 {
		e.res.lookupNs = float64(dur.Nanoseconds()) / float64(n)
	}
}

// warm reads one never-written block through every VM before the timed
// phase, so each VF's translation starts in the BTLB rather than with a cold
// tree walk: the sample describes steady state.
func (e *env) warm(base int64) error {
	bs := e.pl.Cfg.Core.BlockSize
	for _, vm := range e.vms {
		lba := int64(0)
		if vm.VFIdx < 0 {
			lba = base
		}
		buf := vm.Kernel.AllocBuffer(int64(bs))
		if err := vm.Kernel.SubmitAligned(e.p, false, lba, buf); err != nil {
			return fmt.Errorf("warm-up read on %s: %w", vm.Name, err)
		}
		for _, b := range buf.Data {
			if b != 0 {
				return fmt.Errorf("warm-up read on %s: never-written block is not zero", vm.Name)
			}
		}
	}
	return nil
}

// tenants builds a tenant workload: tenantVMs NeSC VMs on images of
// tenantImage blocks, clientsPerVM closed-loop clients on each. Every 4 KB
// op is exactly one VF request, so the guest residual covers every op.
func tenants(sparse bool, ops, writePct, readBackPct int) func(*env) error {
	return func(e *env) error {
		if err := e.mkVMs(tenantVMs, tenantImage, sparse); err != nil {
			return err
		}
		if err := e.warm(0); err != nil {
			return err
		}
		e.timed(func() { e.runTenants(ops, writePct, readBackPct) })
		for _, op := range e.res.ops {
			e.res.residualLat += op.lat
		}
		e.res.residualOps = int64(len(e.res.ops))
		e.res.residualDev = e.res.seg.total
		return nil
	}
}

// backendsQD1: the paper's Fig. 9/10 method. One client at queue depth 1
// runs each backend in turn on one platform: 1 KB random reads and writes,
// then 32 KB sequential reads and 32 KB sequential writes. All four backends
// address the same 64 MB preallocated host file — the NeSC VF through its
// extent tree, the others at the file's physical blocks through the PF — so
// one oracle spans every phase and the host filesystem stays consistent.
func backendsQD1(e *env) error {
	const path = "/fig9.img"
	if err := e.phase(2, "MkImage", func() error {
		return e.pl.MkImage(e.p, path, 1, rawImage, false)
	}); err != nil {
		return err
	}
	if err := e.phase(3, "NewVM", func() error {
		for _, c := range []hypervisor.VMConfig{
			{Backend: hypervisor.BackendDirect, DiskPath: path, UID: 1},
			{Backend: hypervisor.BackendVirtio, RawDevice: true},
			{Backend: hypervisor.BackendEmulation, RawDevice: true},
		} {
			c.Guest = e.pl.Cfg.Guest
			vm, err := e.pl.Hyp.NewVM(e.p, c.Backend.String(), c)
			if err != nil {
				return err
			}
			e.vms = append(e.vms, vm)
		}
		return nil
	}); err != nil {
		return err
	}
	runs := e.pl.Hyp.VFTree(e.vms[0].VFIdx).Runs()
	if len(runs) != 1 || runs[0].Count != rawImage {
		return fmt.Errorf("backends-qd1: %s is not one contiguous extent: %v", path, runs)
	}
	base := int64(runs[0].Physical)
	if err := e.warm(base); err != nil {
		return err
	}
	bs := e.pl.Cfg.Core.BlockSize
	o := newOracle(mix(e.seed^0xf19), rawImage)
	r := newRNG(e.seed, uint64(e.res.sub), 0xf19)
	pf := e.pl.Hyp.PFDisk()
	hostBuf := make([]byte, 32<<10)
	guestBufs := make([]guest.Buffer, len(e.vms))
	for i, vm := range e.vms {
		guestBufs[i] = vm.Kernel.AllocBuffer(32 << 10)
	}

	// io performs one op of phase b on data, a prefix of the phase's buffer.
	io := func(b int, write bool, lba int64, data []byte) (sim.Time, error) {
		if b == 0 { // host: the PF block device, no virtualization layer
			e.req++
			sp := e.tr.begin("PFDisk", e.parent, e.req, e.p.Now())
			t0 := e.p.Now()
			var err error
			if write {
				err = pf.WriteBlocks(e.p, base+lba, data)
			} else {
				err = pf.ReadBlocks(e.p, base+lba, data)
			}
			e.tr.end(sp, e.p.Now())
			return e.p.Now() - t0, err
		}
		vm := e.vms[b-1]
		if vm.VFIdx < 0 {
			lba += base
		}
		return e.submit(e.p, vm.Kernel, write, lba, guest.Buffer{Addr: guestBufs[b-1].Addr, Data: data})
	}

	e.timed(func() {
		for b, ph := range rawBackends {
			op := func(write bool, lba int64, n int, class int8) {
				data := hostBuf[:n*bs]
				if b > 0 {
					data = guestBufs[b-1].Data[:n*bs]
				}
				var v uint32
				if write {
					v = o.fill(data, lba, bs)
				}
				lat, err := io(b, write, lba, data)
				switch {
				case err != nil:
					e.res.fail("%s lba %d write=%v: %v", ph.name, lba, write, err)
				case write:
					o.commit(lba, n, v)
				case !o.check(data, lba, bs):
					e.res.fail("%s lba %d: read returned stale or foreign data", ph.name, lba)
				}
				e.record(lat, write, class, n*bs)
			}

			small := int8(2 * b)
			segs, n0 := e.vfSegments(), len(e.res.ops)
			for i := 0; i < ph.small; i++ {
				op(r.chance(50), r.intn(rawImage), 1, small)
			}
			if ph.name == "nesc" {
				// The residual covers the 1 KB NeSC ops: one VF request each.
				for _, rec := range e.res.ops[n0:] {
					e.res.residualLat += rec.lat
				}
				e.res.residualOps += int64(len(e.res.ops) - n0)
				e.res.residualDev += e.vfSegments().minus(segs).total
			}
			const large = 32
			for _, write := range []bool{false, true} {
				start := r.intn(rawImage/large) * large
				for i := int64(0); i < int64(ph.large); i++ {
					op(write, (start+i*large)%rawImage, large, small+1)
				}
			}
		}
	})
	return nil
}
