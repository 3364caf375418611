package bench

import (
	"nesc/internal/core"
	"nesc/internal/hypervisor"
	"nesc/internal/metrics"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/trace"
	"nesc/internal/workload"
)

// Spans is the telemetry showcase experiment: it runs a write-then-read
// workload against a sparse image on a directly assigned VF with the metrics
// registry and span recorder attached, then reads the per-stage latency
// histograms back out of the registry. The sparse image makes the write pass
// take hypervisor-serviced translation misses (lazy allocation), the
// interleaved walks populate the BTLB, and the read pass then hits it — so
// one table shows the BTLB-hit / tree-walk / miss latency separation the
// span machinery exists to expose.
func Spans(cfg Config) ([]*stats.Table, error) {
	reg := metrics.New()
	c := cfg
	c.Metrics = reg
	c.Spans = trace.NewSpanRecorder(4096)
	if _, err := spansWorkload(c); err != nil {
		return nil, err
	}

	tbl := stats.NewTable("Span-derived per-stage latency (sparse image, 4KB x QD4, write pass then read pass)",
		"stage", "us", "write mean", "write p99", "read mean", "read p99")
	type row struct{ label, family string }
	var rows []row
	for _, st := range core.Stages {
		for _, fam := range st.Families {
			rows = append(rows, row{fam.Label, fam.Name})
		}
	}
	rows = append(rows, row{"end-to-end request", core.RequestLatencyFamily})
	// The workload drives VF 1 on queue 0; read the exact series back.
	for _, r := range rows {
		for _, op := range []string{"write", "read"} {
			h := reg.Histogram(r.family, "", metrics.VFQOp(1, 0, op))
			if h.Count() == 0 {
				continue // e.g. no misses on the read pass, no CoW or verify at all
			}
			tbl.Set(r.label, op+" mean", h.Mean()/1000)
			tbl.Set(r.label, op+" p99", h.Quantile(0.99)/1000)
		}
	}
	tbl.Note("the write pass faults every block in through the hypervisor (lazy allocation); the read pass rides the warmed BTLB")
	tbl.Note("p99 cells are log2-histogram estimates (geometric bucket midpoint)")
	return []*stats.Table{tbl}, nil
}

// spansWorkload writes a 4 MB sparse image on a directly assigned VF with
// 4 KB requests at QD 4, then reads it back, on a fresh platform built from
// cfg, and returns the platform after the run.
func spansWorkload(cfg Config) (*Platform, error) {
	pl := NewPlatform(cfg)
	const fileBlocks = 4096 // 4 MB sparse image
	err := pl.Run(func(p *sim.Proc) error {
		if err := pl.Boot(p); err != nil {
			return err
		}
		if err := pl.MkImage(p, "/spans.img", 1, fileBlocks, true); err != nil {
			return err
		}
		vm, err := pl.Hyp.NewVM(p, "spans", hypervisor.VMConfig{
			Backend: hypervisor.BackendDirect, DiskPath: "/spans.img", UID: 1, Guest: pl.Cfg.Guest,
		})
		if err != nil {
			return err
		}
		tgt := NewVMRawTarget(vm.Kernel)
		total := int64(fileBlocks) * int64(pl.Cfg.Core.BlockSize)
		if _, err := (workload.ParallelDD{BlockBytes: 4096, TotalBytes: total, QD: 4, Write: true}).Run(p, tgt); err != nil {
			return err
		}
		_, err = (workload.ParallelDD{BlockBytes: 4096, TotalBytes: total, QD: 4}).Run(p, tgt)
		return err
	})
	return pl, err
}
