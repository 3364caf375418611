package core

import (
	"nesc/internal/metrics"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/slo"
	"nesc/internal/trace"
)

// Telemetry glue: the controller publishes its counters into a
// metrics.Registry and threads request-scoped spans through the pipeline.
// Everything here only READS the simulated clock — no instrumented path ever
// sleeps or schedules — so enabling telemetry cannot perturb virtual time,
// and every experiment output stays byte-identical with it on or off.
//
// Two mechanisms with different hot-path costs:
//
//   - The scattered int64 Stats fields (also served by the MMIO error
//     registers) stay the single source of truth; the registry absorbs them
//     as GaugeFunc closures sampled at export time. Zero hot-path change.
//   - Per-stage latency histograms and per-request counters are fed from the
//     pipeline as requests flow, keyed {vf, q, op}. Each observation is one
//     mutex-guarded map lookup with a comparable struct key — no allocation.

// RequestLatencyFamily is the end-to-end request latency histogram (fetch
// to completion), keyed {vf, q, op}. Metric families follow
// nesc_<subsystem>_<name> with unit suffixes (_ns, _total); DESIGN.md §10
// documents the full catalogue.
const RequestLatencyFamily = "nesc_request_ns"

// Stage is one timed controller pipeline stage (paper Fig. 7).
type Stage uint8

const (
	StageFetch     Stage = iota // descriptor DMA + decode
	StageQueue                  // vLBA queue residence
	StageTranslate              // BTLB lookup / tree walk / miss service
	StageDTUWait                // pLBA queue residence
	StageTransfer               // DMA channel service (medium + PCIe)
	StageVerify                 // scrub verify service
	NumStages
)

// Translation outcomes: the tag of a StageTranslate interval, indexing that
// stage's histogram families.
const (
	tagHit  uint8 = iota // BTLB hit
	tagWalk              // extent-tree walk satisfied in hardware
	tagMiss              // walk parked; hypervisor serviced a miss
	tagCow               // write trapped on a protected extent; hypervisor broke sharing
)

// StageFamily is one histogram family of a stage: StageTranslate has one per
// translation outcome (in tag order), every other stage exactly one.
type StageFamily struct {
	Tag   string // span phase tag ("" when the stage is untagged)
	Name  string // histogram family, keyed {vf, q, op}
	Help  string
	Label string // row label in experiment tables
}

// StageInfo is one row of the stage table.
type StageInfo struct {
	Phase    string // span phase name
	Seg      int    // slo attribution segment
	Families []StageFamily
}

// Stages is the stage table, indexed by Stage: the single source of every
// per-stage name the sinks export. Span phases, metric families and
// attribution segments are on-disk and dashboard formats — never rename.
var Stages = [NumStages]StageInfo{
	StageFetch: {"fetch", slo.SegFetch, []StageFamily{
		{"", "nesc_pipeline_fetch_ns", "descriptor fetch + decode latency", "descriptor fetch"}}},
	StageQueue: {"queue", slo.SegQueue, []StageFamily{
		{"", "nesc_pipeline_queue_wait_ns", "vLBA queue residence per chunk", "vLBA queue wait"}}},
	StageTranslate: {"translate", slo.SegTranslate, []StageFamily{
		tagHit:  {"hit", "nesc_pipeline_translate_hit_ns", "translation latency, BTLB hit", "translate (BTLB hit)"},
		tagWalk: {"walk", "nesc_pipeline_translate_walk_ns", "translation latency, extent-tree walk", "translate (tree walk)"},
		tagMiss: {"miss", "nesc_pipeline_translate_miss_ns", "translation latency, hypervisor-serviced miss", "translate (hyp. miss)"},
		tagCow:  {"cow", "nesc_pipeline_translate_cow_ns", "translation latency, hypervisor-serviced CoW break", "translate (CoW break)"}}},
	StageDTUWait: {"dtu_wait", slo.SegDTUWait, []StageFamily{
		{"", "nesc_pipeline_dtu_wait_ns", "pLBA queue residence per chunk", "pLBA queue wait"}}},
	StageTransfer: {"transfer", slo.SegMedium, []StageFamily{
		{"", "nesc_pipeline_transfer_ns", "DMA channel service per chunk (medium + PCIe)", "DMA transfer"}}},
	StageVerify: {"verify", slo.SegMedium, []StageFamily{
		{"", "nesc_pipeline_verify_ns", "scrub verify service per chunk", "scrub verify"}}},
}

// stage records one interval of r — of chunk ch, or request-level when ch is
// nil — into every attached per-stage sink: the stage's histogram family,
// the request's span, and its attribution segment. Callers hold the req.obs
// gate.
func (c *Controller) stage(r *Request, ch *chunk, st Stage, start, end sim.Time) {
	row := &Stages[st]
	fam := &row.Families[0]
	idx := -1
	if ch != nil {
		idx = ch.idx
		if st == StageTranslate {
			fam = &row.Families[ch.tag]
		}
	}
	d := end - start
	if c.Metrics != nil {
		c.Metrics.Histogram(fam.Name, fam.Help, reqLabels(r)).Observe(int64(d))
	}
	r.span.Phase(row.Phase, idx, start, end, fam.Tag)
	if c.Attrib != nil && d > 0 {
		r.segs[row.Seg] += d
	}
}

// reqLabels builds the {vf, q, op} label set for a request.
func reqLabels(r *Request) metrics.Labels {
	q := 0
	if r.q != nil {
		q = r.q.idx
	}
	return metrics.VFQOp(r.fn.idx, q, ring.OpName(r.Op))
}

// noteDeadline posts a deadline-expiration event naming the pipeline stage
// that caught it.
func (c *Controller) noteDeadline(at sim.Time, r *Request, stage string) {
	if c.Board != nil {
		c.Board.Emit(slo.Event{At: at, Kind: slo.EventDeadline, Dev: c.P.DeviceID,
			VF: r.fn.idx, ReqID: r.ReqID, Note: stage})
	}
}

// finishAttribution finalizes a completed request's segment vector — retry
// share carved out of the medium share, admission-gate rejects charged
// entirely to admission, residual wall time to "other" — and folds it into
// the budget table. Called only with an attributor attached.
func (c *Controller) finishAttribution(r *Request, now sim.Time) {
	total := now - r.t0
	if r.retries > 0 {
		rd := sim.Time(r.retries) * c.P.MediumRetryDelay
		if rd > r.segs[slo.SegMedium] {
			rd = r.segs[slo.SegMedium]
		}
		r.segs[slo.SegRetry] = rd
		r.segs[slo.SegMedium] -= rd
	}
	if !r.admitted && r.status == StatusBusy {
		// Fast-failed at the admission gate: nothing executed, its whole
		// (short) life was admission control.
		r.segs[slo.SegAdmission] = total
	}
	var sum sim.Time
	for i := 0; i < slo.NumSegments; i++ {
		sum += r.segs[i]
	}
	if total > sum {
		r.segs[slo.SegOther] = total - sum
	}
	c.Attrib.Record(r.fn.idx, ring.OpName(r.Op), r.ReqID, total, r.status == StatusOK, r.segs)
}

// AttachSLO hands the controller the observability layer's sinks: the
// anomaly scoreboard, the per-tenant SLO engine, and the attribution sink.
// Any may be nil; with all nil the controller behaves exactly as before.
// Like AttachTelemetry, everything here only reads the virtual clock.
func (c *Controller) AttachSLO(board *slo.Scoreboard, eng *slo.Engine, attrib *slo.Attributor) {
	c.Board = board
	c.SLO = eng
	c.Attrib = attrib
}

// AttachTelemetry hands the controller its telemetry sinks. Either may be
// nil; with both nil the controller behaves exactly as before. Must be
// called before traffic flows (registration takes the registry lock). The
// device's counter fields are registered as export-time gauge closures;
// re-attaching a controller to the same registry replaces them (last
// controller wins), which is what a multi-platform benchmark run wants.
func (c *Controller) AttachTelemetry(reg *metrics.Registry, spans *trace.SpanRecorder) {
	c.Metrics = reg
	c.Spans = spans
	if reg == nil {
		return
	}
	no := metrics.NoLabels
	counters := []struct {
		name, help string
		v          *int64
	}{
		{"nesc_device_btlb_hits_total", "BTLB lookup hits", &c.BTLBStats.Hits},
		{"nesc_device_btlb_misses_total", "BTLB lookup misses", &c.BTLBStats.Misses},
		{"nesc_device_walk_node_reads_total", "extent-tree node DMA reads", &c.WalkNodeReads},
		{"nesc_device_misses_total", "translation misses latched", &c.Misses},
		{"nesc_device_cow_faults_total", "writes trapped on write-protected (CoW shared) extents", &c.CowFaults},
		{"nesc_device_btlb_invalidations_total", "BTLB entries dropped by targeted invalidation", &c.BTLBInvalidations},
		{"nesc_device_reqs_done_total", "requests retired", &c.ReqsDone},
		{"nesc_device_chunks_done_total", "chunks retired", &c.ChunksDone},
		{"nesc_device_fetch_drops_total", "doorbells lost to descriptor-fetch DMA errors", &c.FetchDrops},
		{"nesc_device_cpl_drops_total", "completions lost to completion-ring DMA errors", &c.CplDrops},
		{"nesc_device_medium_errors_total", "chunks that exhausted medium retries", &c.MediumErrors},
		{"nesc_device_medium_retries_total", "medium retry attempts", &c.MediumRetries},
		{"nesc_device_dma_faults_total", "chunks failed by data-buffer DMA faults", &c.DMAFaults},
		{"nesc_device_flrs_total", "function-level resets performed", &c.FLRs},
		{"nesc_device_aborted_chunks_total", "chunks killed by a reset", &c.AbortedChunks},
		{"nesc_device_miss_resends_total", "miss MSIs re-raised by the resend timer", &c.MissResends},
		{"nesc_device_bad_ring_writes_total", "rejected ring-size register writes", &c.BadRingSizes},
		{"nesc_device_bad_doorbells_total", "ignored incoherent doorbell writes", &c.BadDoorbells},
		{"nesc_device_integrity_errors_total", "requests latched StatusIntegrityError", &c.IntegrityErrors},
		{"nesc_device_integrity_repairs_total", "integrity failures healed by retry or scrub", &c.IntegrityRepairs},
		{"nesc_device_scrub_chunks_total", "verify chunks processed", &c.ScrubChunks},
		{"nesc_device_queue_leases_total", "queue pairs leased from the device pool", &c.QueueLeases},
		{"nesc_device_queue_returns_total", "queue pairs returned to the device pool", &c.QueueReturns},
		{"nesc_device_queue_lease_fails_total", "ring programmings rejected by an exhausted pool", &c.QueueLeaseFails},
		{"nesc_device_shadow_batches_total", "fetch batches initiated via shadow doorbells", &c.ShadowBatches},
		{"nesc_device_admit_rejects_total", "requests fast-failed StatusBusy by per-VF admission control", &c.AdmitRejects},
		{"nesc_device_deadline_expirations_total", "requests or chunks completed StatusBusy past their deadline", &c.DeadlineExpirations},
	}
	for _, ct := range counters {
		v := ct.v
		reg.GaugeFunc(ct.name, ct.help, no, func() float64 { return float64(*v) })
	}
	reg.GaugeFunc("nesc_device_btlb_hit_rate", "BTLB hits / lookups", no, c.BTLBStats.Rate)
	reg.GaugeFunc("nesc_device_flight_records_total", "flight-recorder captures", no,
		func() float64 {
			if c.Flight == nil {
				return 0
			}
			return float64(c.Flight.Total)
		})
	reg.GaugeFunc("nesc_device_materialized_vfs", "VFs with device state built", no,
		func() float64 { return float64(c.nMat) })
	reg.GaugeFunc("nesc_device_leased_queues", "queue pairs currently leased out", no,
		func() float64 { return float64(c.LeasedQueues()) })
	// DRR fairness: Jain's index over per-VF block counts, restricted to VFs
	// that moved traffic (1 = perfectly fair, 1/n = maximally skewed). Only
	// materialized VFs can have moved traffic, so the lazy table loses
	// nothing.
	reg.GaugeFunc("nesc_device_drr_fairness", "Jain fairness index over per-VF blocks served", no,
		func() float64 { return c.JainFairness() })
	// Per-function series: the PF and every already-materialized VF now;
	// VFs materialized later register their gauges at materialization, so
	// configured-but-idle VFs never occupy series.
	c.fnGaugeReg = reg
	c.registerFnGauges(reg, c.pf)
	c.forEachVF(func(f *Function) { c.registerFnGauges(reg, f) })
}

// registerFnGauges publishes one function's per-VF gauge series; called for
// live functions at attach time and for each VF materialized afterwards.
func (c *Controller) registerFnGauges(reg *metrics.Registry, f *Function) {
	l := metrics.VFLabel(f.idx)
	reg.GaugeFunc("nesc_fn_inflight", "fetched-but-uncompleted requests", l,
		func() float64 { return float64(f.inflight) })
	reg.GaugeFunc("nesc_fn_reqs_total", "requests fetched", l,
		func() float64 { return float64(f.Reqs) })
	reg.GaugeFunc("nesc_fn_blocks_total", "blocks requested", l,
		func() float64 { return float64(f.Blocks) })
	reg.GaugeFunc("nesc_fn_resets_total", "function-level resets", l,
		func() float64 { return float64(f.Resets) })
}

// JainFairness computes Jain's fairness index (Σx)²/(n·Σx²) over the block
// counts of materialized VFs that served any traffic; 1 when idle.
func (c *Controller) JainFairness() float64 {
	var sum, sumSq float64
	n := 0
	c.forEachVF(func(f *Function) {
		if f.Blocks == 0 {
			return
		}
		x := float64(f.Blocks)
		sum += x
		sumSq += x * x
		n++
	})
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}
