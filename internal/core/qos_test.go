package core

import (
	"testing"

	"nesc/internal/extent"
	"nesc/internal/sim"
	"nesc/internal/trace"
)

func TestWeightRegisterClamping(t *testing.T) {
	r := newRig(t, smallParams())
	done := false
	r.eng.Go("hyp", func(p *sim.Proc) {
		mgmt := r.bar + r.ctl.MgmtPageOffset()
		vf := r.ctl.VF(0)
		if vf.weight != 1 {
			t.Errorf("default weight = %d", vf.weight)
		}
		r.mmioW(p, mgmt+MgmtWeight, 8)
		// Posted write: the read round trip orders behind it.
		if got := r.mmioR(p, mgmt+MgmtWeight); got != 8 {
			t.Errorf("weight readback = %d", got)
		}
		// Out-of-range values are ignored.
		r.mmioW(p, mgmt+MgmtWeight, 0)
		r.mmioW(p, mgmt+MgmtWeight, 1000)
		if got := r.mmioR(p, mgmt+MgmtWeight); got != 8 {
			t.Errorf("weight after invalid writes = %d", got)
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
}

// fillPLBAQueues stuffs n chunks into each of the first two VFs' pLBA
// queues and joins them to the DTU's active list (unit-level access; QoS
// binds only under backlog, which queue-depth-1 clients never create).
func fillPLBAQueues(c *Controller, n int) {
	for i := 0; i < 2; i++ {
		f := c.VF(i)
		req := &Request{fn: f, Op: OpWrite, left: n}
		for k := 0; k < n; k++ {
			if !f.plbaQ.TryPush(&chunk{req: req, lba: uint64(k)}) {
				panic("queue full in test setup")
			}
		}
		c.dtuNote(f)
	}
}

func TestDTUPickWeightedScheduling(t *testing.T) {
	p := smallParams()
	p.PLBAQueueDepth = 256
	r := newRig(t, p)
	c := r.ctl
	c.VF(0).weight = 6
	c.VF(1).weight = 1
	fillPLBAQueues(c, 140)
	var picks [2]int
	for i := 0; i < 140; i++ {
		ch, ok := c.dtuPick()
		if !ok {
			t.Fatalf("pick %d failed with backlog present", i)
		}
		picks[ch.req.fn.idx-1]++
	}
	// 140 picks at 6:1 → 120:20.
	if picks[0] != 120 || picks[1] != 20 {
		t.Fatalf("picks = %v, want [120 20]", picks)
	}
	// Work conservation: once VF0 drains, VF1 gets everything.
	for c.VF(0).plbaQ.Len() > 0 {
		c.dtuPick()
	}
	before := c.VF(1).plbaQ.Len()
	if before == 0 {
		t.Fatal("VF1 queue already empty")
	}
	if ch, ok := c.dtuPick(); !ok || ch.req.fn.idx != 2 {
		t.Fatal("scheduler not work-conserving after VF0 drained")
	}
}

func TestDTUPickEqualWeightsAlternate(t *testing.T) {
	p := smallParams()
	p.PLBAQueueDepth = 64
	r := newRig(t, p)
	c := r.ctl
	fillPLBAQueues(c, 32)
	var picks [2]int
	for i := 0; i < 64; i++ {
		ch, ok := c.dtuPick()
		if !ok {
			t.Fatalf("pick %d failed", i)
		}
		picks[ch.req.fn.idx-1]++
	}
	if picks[0] != 32 || picks[1] != 32 {
		t.Fatalf("equal weights picked %v", picks)
	}
}

func TestDTUPickOOBPriority(t *testing.T) {
	r := newRig(t, smallParams())
	c := r.ctl
	fillPLBAQueues(c, 4)
	pfReq := &Request{fn: c.pf, Op: OpRead, left: 1}
	c.oobQ.TryPush(&chunk{req: pfReq})
	ch, ok := c.dtuPick()
	if !ok || ch.req.fn != c.pf {
		t.Fatal("OOB chunk did not win priority")
	}
}

func TestTracerRecordsRequestLifecycle(t *testing.T) {
	r := newRig(t, smallParams())
	r.ctl.Tracer = trace.NewRing(64)
	tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 16}})
	buf := r.mem.MustAlloc(4096, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 16)
		d := r.openFunction(p, 1)
		if st := d.io(p, OpWrite, 0, 4, buf); st != StatusOK {
			t.Errorf("status %d", st)
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
	evs := r.ctl.Tracer.Events()
	var kinds []trace.Kind
	for _, e := range evs {
		if e.Fn == 1 {
			kinds = append(kinds, e.Kind)
		}
	}
	// Lifecycle: fetch, then translations/transfers, then completion last.
	if len(kinds) < 3 || kinds[0] != trace.KindFetch || kinds[len(kinds)-1] != trace.KindComplete {
		t.Fatalf("lifecycle kinds = %v", kinds)
	}
	sawTranslate, sawTransfer := false, false
	for _, k := range kinds {
		if k == trace.KindTranslate {
			sawTranslate = true
		}
		if k == trace.KindTransfer {
			sawTransfer = true
		}
	}
	if !sawTranslate || !sawTransfer {
		t.Fatalf("missing pipeline events: %v", kinds)
	}
	// Timestamps are monotone.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace events out of order")
		}
	}
}
