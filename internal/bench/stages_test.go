package bench

import (
	"testing"

	"nesc/internal/core"
	"nesc/internal/metrics"
	"nesc/internal/sim"
	"nesc/internal/slo"
	"nesc/internal/trace"
)

// TestStageSinksAgree runs the spans workload (sparse image, 4 KB writes then
// reads at QD 4) with the metrics registry, a span recorder that never wraps
// and the attributor all attached. The controller records each stage
// interval once into all three sinks, so for every stage three totals must
// be equal: the histogram sum over every series, the summed span phases and
// the attribution segment total. Transfer and verify both charge the medium
// segment, from which retry time is carved out. The same workload with no
// sink attached must land on the same simulated clock and counters: the
// stage gate only reads the clock.
func TestStageSinksAgree(t *testing.T) {
	reg := metrics.New()
	spans := trace.NewSpanRecorder(1 << 18)
	attrib := slo.NewAttributor(16)
	cfg := DefaultConfig()
	cfg.Metrics, cfg.Spans, cfg.Attrib = reg, spans, attrib
	pl, err := spansWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spans.Total != int64(spans.Len()) {
		t.Fatalf("span ring wrapped (%d of %d kept); enlarge it", spans.Len(), spans.Total)
	}
	rows := attrib.Rows()

	for _, g := range []struct {
		name   string
		stages []core.Stage
		segs   []int
	}{
		{"fetch", []core.Stage{core.StageFetch}, []int{slo.SegFetch}},
		{"queue", []core.Stage{core.StageQueue}, []int{slo.SegQueue}},
		{"translate", []core.Stage{core.StageTranslate}, []int{slo.SegTranslate}},
		{"dtu_wait", []core.Stage{core.StageDTUWait}, []int{slo.SegDTUWait}},
		{"medium", []core.Stage{core.StageTransfer, core.StageVerify}, []int{slo.SegMedium, slo.SegRetry}},
	} {
		hist := stageTotal(reg, g.stages)
		var spanNs sim.Time
		var phases int64
		for _, s := range spans.Spans() {
			for _, ph := range s.Phases {
				for _, st := range g.stages {
					if ph.Name == core.Stages[st].Phase {
						spanNs += ph.End - ph.Start
						phases++
					}
				}
			}
		}
		var segNs int64
		for _, r := range rows {
			for _, seg := range g.segs {
				segNs += r.SegNs[seg]
			}
		}
		// Stages are recorded whenever a sink is attached.
		if hist.n == 0 || hist.ns <= 0 {
			t.Errorf("%s: no stage intervals recorded", g.name)
			continue
		}
		if hist.n != phases {
			t.Errorf("%s: %d histogram observations, %d span phases", g.name, hist.n, phases)
		}
		if int64(hist.ns) != int64(spanNs) || int64(spanNs) != segNs {
			t.Errorf("%s: histograms %.0f ns, spans %d ns, attribution %d ns", g.name, hist.ns, spanNs, segNs)
		}
	}

	bare, err := spansWorkload(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if bare.Eng.Now() != pl.Eng.Now() || bare.Ctl.ChunksDone != pl.Ctl.ChunksDone ||
		bare.Ctl.ReqsDone != pl.Ctl.ReqsDone || bare.Ctl.Misses != pl.Ctl.Misses {
		t.Fatalf("sinks perturbed the run: bare clock %v chunks %d reqs %d misses %d, instrumented %v/%d/%d/%d",
			bare.Eng.Now(), bare.Ctl.ChunksDone, bare.Ctl.ReqsDone, bare.Ctl.Misses,
			pl.Eng.Now(), pl.Ctl.ChunksDone, pl.Ctl.ReqsDone, pl.Ctl.Misses)
	}
}
