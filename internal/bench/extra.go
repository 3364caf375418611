package bench

import (
	"fmt"

	"nesc/internal/core"
	"nesc/internal/hypervisor"
	"nesc/internal/metrics"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/workload"
)

// Additional analysis experiments beyond the paper's figures: a per-stage
// latency breakdown inside the controller, and a queue-depth scaling sweep.

// Breakdown reports where a 4 KB request's chunks spend their time inside
// the NeSC pipeline (paper Fig. 7's stages), for an idle and a loaded
// device. Each row sums the controller's stage histograms over every
// function's chunks, the PF's image-build traffic included; verify chunks
// count as transfer.
func Breakdown(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Latency breakdown inside the NeSC pipeline (4KB writes, per 1KB chunk)",
		"stage", "us", "QD 1", "QD 16")
	rows := []struct {
		label  string
		stages []core.Stage
	}{
		{"vLBA queue wait", []core.Stage{core.StageQueue}},
		{"translation (BTLB/walk)", []core.Stage{core.StageTranslate}},
		{"pLBA queue wait", []core.Stage{core.StageDTUWait}},
		{"DMA transfer (medium+PCIe)", []core.Stage{core.StageTransfer, core.StageVerify}},
	}
	for _, qd := range []int{1, 16} {
		c := cfg
		if c.Metrics == nil {
			c.Metrics = metrics.New()
		}
		// A caller's registry keeps accumulating across platforms: each row
		// reads the delta this platform adds.
		before := make([]stageSum, len(rows))
		for i, r := range rows {
			before[i] = stageTotal(c.Metrics, r.stages)
		}
		pl := NewPlatform(c)
		err := pl.Run(func(p *sim.Proc) error {
			if err := pl.Boot(p); err != nil {
				return err
			}
			tgt, err := pl.rawTarget(p, BackendNeSC, rawImageBlocks)
			if err != nil {
				return err
			}
			_, err = (workload.ParallelDD{BlockBytes: 4096, TotalBytes: 4 << 20, QD: qd, Write: true}).Run(p, tgt)
			return err
		})
		if err != nil {
			return nil, err
		}
		col := fmt.Sprintf("QD %d", qd)
		for i, r := range rows {
			t := stageTotal(c.Metrics, r.stages)
			var mean float64
			if n := t.n - before[i].n; n > 0 {
				mean = (t.ns - before[i].ns) / float64(n) / 1000
			}
			tbl.Set(r.label, col, mean)
		}
	}
	tbl.Note("at QD 1 the pipeline is latency-bound (transfer dominates); at QD 16 queueing appears ahead of the saturated medium")
	return []*stats.Table{tbl}, nil
}

// stageSum is an observation count and total (ns) over stage histograms.
type stageSum struct {
	n  int64
	ns float64
}

// stageTotal sums every series of every histogram family of the stages.
func stageTotal(reg *metrics.Registry, stages []core.Stage) stageSum {
	var t stageSum
	for _, st := range stages {
		for _, fam := range core.Stages[st].Families {
			n, ns := reg.HistogramTotal(fam.Name)
			t.n += n
			t.ns += ns
		}
	}
	return t
}

// QDepth sweeps request-level parallelism: NeSC's hardware pipeline absorbs
// it until the medium saturates, while virtio saturates at its software
// per-request costs.
func QDepth(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Queue-depth scaling (4KB writes)", "QD", "MB/s", BackendNeSC, BackendVirt)
	for _, backend := range []string{BackendNeSC, BackendVirt} {
		backend := backend
		pl := NewPlatform(cfg)
		err := pl.Run(func(p *sim.Proc) error {
			if err := pl.Boot(p); err != nil {
				return err
			}
			var tgt workload.ByteTarget
			var err error
			if backend == BackendNeSC {
				tgt, err = pl.rawTarget(p, BackendNeSC, rawImageBlocks)
			} else {
				var vm *hypervisor.VM
				vm, err = pl.Hyp.NewVM(p, "qd", hypervisor.VMConfig{
					Backend: hypervisor.BackendVirtio, RawDevice: true, Guest: pl.Cfg.Guest,
				})
				if err == nil {
					tgt = NewVMRawTarget(vm.Kernel)
				}
			}
			if err != nil {
				return err
			}
			for _, qd := range []int{1, 2, 4, 8, 16} {
				res, err := (workload.ParallelDD{BlockBytes: 4096, TotalBytes: 4 << 20, QD: qd, Write: true}).Run(p, tgt)
				if err != nil {
					return err
				}
				tbl.Set(fmt.Sprintf("%d", qd), backend, res.BandwidthMBps())
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("qdepth %s: %w", backend, err)
		}
	}
	tbl.Note("NeSC rides queue depth to the medium's limit; virtio saturates at the backend's per-request software cost")
	return []*stats.Table{tbl}, nil
}
