// Command perfbench is the repository's two-clock benchmark: it runs one
// named workload on the simulated NeSC platform, checks every read against
// an oracle, and prints end-to-end metrics (untraced) or per-layer metrics
// (a separate traced run) as a JSON object on the last line of stdout.
//
//	perfbench --workload tenant-mix-4k --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"nesc/internal/bench"
	"nesc/internal/metrics"
	"nesc/internal/sim"
	"nesc/internal/slo"
	"nesc/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measuring window in host seconds")
	traced := flag.Int("trace", 0, "1 = per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for spans and the CPU profile")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}

	// The simulator runs one proc at a time; a second P serves the GC.
	// Pinning the count keeps hosts with more CPUs comparable.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}
	start := time.Now()
	var rounds []*roundResult
	for r := 0; r < max(wl.rounds, 2) || time.Since(start).Seconds() < *seconds; r++ {
		res, err := runRound(wl, *seed, r%wl.rounds, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", wl.name, r, err)
			return 1
		}
		rounds = append(rounds, res)
	}
	rep := report{wl: wl, rounds: rounds, host: rounds[1:]}
	for r := wl.rounds; r < len(rounds); r++ {
		if rounds[r].digest != rounds[r%wl.rounds].digest {
			rep.problem("round %d: simulated results differ from round %d with the same inputs", r, r%wl.rounds)
		}
	}

	var ms []metric
	if *traced == 1 {
		tr, err := runTraced(wl, *seed, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced run: %v\n", wl.name, err)
			return 1
		}
		rep.tr = tr
		for _, t := range tr.rounds {
			if t.digest != rounds[t.sub].digest {
				rep.problem("traced round %d: telemetry changed the simulated results", t.sub)
			}
		}
		ms = rep.perLayer()
	} else {
		ms = rep.endToEnd()
	}
	rep.summary(os.Stderr)
	return rep.print(ms)
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// runRound builds a fresh platform and runs one round of wl on it.
func runRound(wl *workload, seed uint64, sub int, tr *tracer) (*roundResult, error) {
	// Collect the previous round's platform before timing set-up, so set-up
	// time excludes collecting another round's memory.
	runtime.GC()
	res := &roundResult{sub: sub}
	cfg := bench.DefaultConfig()
	if tr != nil {
		cfg.Metrics = metrics.New()
		cfg.Spans = trace.NewSpanRecorder(4096)
		cfg.Attrib = slo.NewAttributor(64)
	}
	e := &env{seed: seed, res: res, tr: tr}
	e.parent = tr.begin("round", 0, 0, 0)
	sp := tr.begin("NewPlatform", e.parent, 0, 0)
	c0 := cpuSeconds()
	pl := bench.NewPlatform(cfg)
	res.setup[0] = cpuSeconds() - c0
	tr.end(sp, 0)
	e.pl = pl
	err := pl.Run(func(p *sim.Proc) error {
		e.p = p
		if err := e.phase(1, "Boot", func() error { return pl.Boot(p) }); err != nil {
			return err
		}
		if err := wl.run(e); err != nil {
			return err
		}
		if err := pl.Hyp.HostFS.Check(p); err != nil {
			res.fail("host filesystem check: %v", err)
		}
		e.treeStats()
		tr.end(e.parent, p.Now())
		return nil
	})
	if err != nil {
		return nil, err
	}
	if bad := pl.Ctl.Medium.Store().VerifyGuards(); len(bad) > 0 {
		res.fail("medium guard check: %d blocks mismatch (first lba %d)", len(bad), bad[0])
	}
	h := fnv.New64a()
	var b [9]byte
	for _, op := range res.ops {
		b[0] = byte(op.class)
		if op.write {
			b[0] |= 0x80
		}
		for i := 0; i < 8; i++ {
			b[1+i] = byte(uint64(op.lat) >> (8 * i))
		}
		h.Write(b[:])
	}
	res.digest = h.Sum64()
	return res, nil
}

// tracedRun is the separate traced run: the workload's sample rounds again
// (repeated for at least five seconds), with the platform's attribution,
// metrics and spans attached, the benchmark's own spans recorded, and a CPU
// profile taken.
type tracedRun struct {
	rounds           []*roundResult
	shares           map[string]float64
	handoff, eventNs float64
}

func runTraced(wl *workload, seed uint64, out string) (*tracedRun, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	t := &tracedRun{}
	t.handoff, t.eventNs = simKernelNs()
	tr := &tracer{t0: time.Now()}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	// Repeat the sample rounds for a few seconds so the profile holds
	// enough samples for per-layer shares of a few percent.
	const minTraced = 5 * time.Second
	start := time.Now()
	for r := 0; r < wl.rounds || time.Since(start) < minTraced; r++ {
		res, err := runRound(wl, seed, r%wl.rounds, tr)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		t.rounds = append(t.rounds, res)
	}
	pprof.StopCPUProfile()
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", wl.name, seed))
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	var err error
	t.shares, err = profileShares(prof.Bytes())
	return t, err
}

// metric is one named value in the result line.
type metric struct {
	name, unit string
	value      float64
}

type report struct {
	wl     *workload
	rounds []*roundResult // untraced; the first wl.rounds form the simulated sample
	// host are the rounds host-time medians use: all but the first, which
	// warms the process up (heap growth, first-touch page faults).
	host     []*roundResult
	tr       *tracedRun
	problems []string
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// sample returns the simulated sample: the ops of the first wl.rounds rounds.
func (r *report) sample() []opRec {
	var ops []opRec
	for _, rr := range r.rounds[:r.wl.rounds] {
		ops = append(ops, rr.ops...)
	}
	return ops
}

// percentile is the nearest-rank percentile of sorted latencies, in µs.
func percentile(sorted []sim.Time, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i].Micros()
}

func latencies(ops []opRec, keep func(opRec) bool) []sim.Time {
	var l []sim.Time
	for _, op := range ops {
		if keep(op) {
			l = append(l, op.lat)
		}
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	return l
}

// medianRound returns the median over rounds of f.
func medianRound(rounds []*roundResult, f func(*roundResult) float64) float64 {
	var xs []float64
	for _, rr := range rounds {
		xs = append(xs, f(rr))
	}
	return median(xs)
}

func wallOpsPerSec(rr *roundResult) float64 { return float64(len(rr.ops)) / rr.wall }

func cpuOpsPerSec(rr *roundResult) float64 { return float64(len(rr.ops)) / rr.cpu }

func setupTotal(s [4]float64) float64 { return s[0] + s[1] + s[2] + s[3] }

// setupBreakdown returns the set-up phases of the median round by total
// set-up time (the mean of the two middle rounds for an even count), so the
// phases sum to setup_s exactly.
func (r *report) setupBreakdown() [4]float64 {
	rs := append([]*roundResult(nil), r.host...)
	sort.Slice(rs, func(i, j int) bool { return setupTotal(rs[i].setup) < setupTotal(rs[j].setup) })
	mid := rs[(len(rs)-1)/2 : len(rs)/2+1]
	var out [4]float64
	for _, rr := range mid {
		for i := range out {
			out[i] += rr.setup[i] / float64(len(mid))
		}
	}
	return out
}

// all returns every round run, untraced then traced.
func (r *report) all() []*roundResult {
	rounds := append([]*roundResult(nil), r.rounds...)
	if r.tr != nil {
		rounds = append(rounds, r.tr.rounds...)
	}
	return rounds
}

func (r *report) attempted() (attempted, failed int64) {
	for _, rr := range r.all() {
		attempted += int64(len(rr.ops))
		failed += rr.failed
	}
	return attempted, failed + int64(len(r.problems))
}

func (r *report) endToEnd() []metric {
	ops := r.sample()
	reads := latencies(ops, func(o opRec) bool { return !o.write })
	writes := latencies(ops, func(o opRec) bool { return o.write })
	var sum, dur sim.Time
	for _, op := range ops {
		sum += op.lat
	}
	for _, rr := range r.rounds[:r.wl.rounds] {
		dur += rr.simDur
	}
	setup := r.setupBreakdown()
	return []metric{
		{"sim_read_p50_us", "sim-us", percentile(reads, 0.50)},
		{"sim_read_p99_us", "sim-us", percentile(reads, 0.99)},
		{"sim_write_p50_us", "sim-us", percentile(writes, 0.50)},
		{"sim_write_p99_us", "sim-us", percentile(writes, 0.99)},
		{"sim_op_mean_us", "sim-us", float64(sum) / float64(len(ops)) / 1000},
		{"sim_iops", "ops/sim-s", float64(len(ops)) / dur.Seconds()},
		{"host_ops_per_cpu_s", "ops/cpu-s", medianRound(r.host, cpuOpsPerSec)},
		{"peak_rss_mb", "MB", peakRSSMB()},
		{"setup_s", "s", setupTotal(setup)},
	}
}

func (r *report) perLayer() []metric {
	tr := r.tr
	// Counts come from the untraced sample rounds (the ones the end-to-end
	// metrics describe); shares, attribution and trees from the traced run.
	var d counters
	var ops, writes, userRead, userWrite int64
	for _, rr := range r.rounds[:r.wl.rounds] {
		for i, v := range rr.delta {
			d[i] += v
		}
		ops += int64(len(rr.ops))
		userRead += rr.userRead
		userWrite += rr.userWrite
		for _, op := range rr.ops {
			if op.write {
				writes++
			}
		}
	}
	var seg segSum
	var resLat sim.Time
	var resOps, resDev int64
	var nodes int
	var lookup float64
	for _, rr := range tr.rounds {
		seg.reqs += rr.seg.reqs
		seg.total += rr.seg.total
		for i := range seg.seg {
			seg.seg[i] += rr.seg.seg[i]
		}
		resLat += rr.residualLat
		resOps += rr.residualOps
		resDev += rr.residualDev
		nodes += rr.treeNodes
		lookup += rr.lookupNs / float64(len(tr.rounds))
	}
	per := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	// Chunks of one request overlap, so the attribution's segment sums can
	// exceed the request's latency; each segment gets its share of the mean
	// VF request latency, and the shares sum to it.
	var segTotal int64
	for _, v := range seg.seg {
		segTotal += v
	}
	segUs := func(i int) float64 { return per(seg.seg[i], segTotal) * per(seg.total, seg.reqs) / 1000 }
	share := func(layer string) float64 { return tr.shares[layer] }
	setup := r.setupBreakdown()

	ms := []metric{
		{"sim.events_per_op", "count", per(d[cEvents], ops)},
		{"sim.handoff_ns", "ns", tr.handoff},
		{"sim.event_ns", "ns", tr.eventNs},
		{"sim.cpu_share", "ratio", share("sim")},
		{"runtime.allocs_per_op", "count", per(d[cMallocs], ops)},
		{"runtime.alloc_bytes_per_op", "B", per(d[cAllocBytes], ops)},
		{"runtime.gc_cpu_share", "ratio", share("runtime.gc")},
		{"runtime.chan_cpu_share", "ratio", share("runtime.chan")},
		{"setup.platform_s", "s", setup[0]},
		{"setup.hostfs_format_s", "s", setup[1]},
		{"setup.image_alloc_s", "s", setup[2]},
		{"setup.vm_attach_s", "s", setup[3]},
		{"hostmem.cpu_share", "ratio", share("hostmem")},
		{"blockdev.cpu_share", "ratio", share("blockdev")},
		{"blockdev.medium_write_bytes_per_user_byte", "ratio", per(d[cMediumWrite], userWrite)},
		{"blockdev.medium_read_bytes_per_user_byte", "ratio", per(d[cMediumRead], userRead)},
		{"pcie.dma_bytes_per_user_byte", "ratio", per(d[cDMA], userRead+userWrite)},
		{"pcie.cpu_share", "ratio", share("pcie")},
		{"core.btlb_hit_rate", "ratio", per(d[cBTLBHits], d[cBTLBHits]+d[cBTLBMisses])},
		{"core.walk_reads_per_op", "count", per(d[cWalkReads], ops)},
	}
	for _, i := range []int{slo.SegFetch, slo.SegQueue, slo.SegTranslate, slo.SegDTUWait, slo.SegMedium, slo.SegOther} {
		ms = append(ms, metric{"core.seg." + slo.SegmentName(i) + "_us", "sim-us", segUs(i)})
	}
	ms = append(ms,
		metric{"core.cpu_share", "ratio", share("core")},
		metric{"ring.cpu_share", "ratio", share("ring")},
		metric{"hypervisor.misses_per_write", "count", per(d[cMisses], writes)},
		metric{"hypervisor.traps_per_op", "count", per(d[cTraps], ops)},
		metric{"hypervisor.cpu_share", "ratio", share("hypervisor")},
		metric{"extent.tree_nodes", "count", float64(nodes) / float64(len(tr.rounds))},
		metric{"extent.lookup_ns", "ns", lookup},
		metric{"extfs.cpu_share", "ratio", share("extfs")},
		metric{"extent.cpu_share", "ratio", share("extent")},
		metric{"guest.residual_us", "sim-us", per(int64(resLat)-resDev, resOps) / 1000},
		metric{"guest.requests_per_op", "count", per(d[cGuestReqs], ops)},
		metric{"guest.cpu_share", "ratio", share("guest")},
		metric{"virtio.cpu_share", "ratio", share("virtio")},
	)
	ms = append(ms, r.backendMetrics()...)
	ms = append(ms,
		metric{"telemetry.overhead", "ratio", medianRound(r.host, cpuOpsPerSec) / medianRound(tr.rounds, cpuOpsPerSec)},
		metric{"telemetry.cpu_share", "ratio", share("telemetry")},
		metric{"untraced.wall_ops_per_s", "ops/s", medianRound(r.host, wallOpsPerSec)},
		metric{"traced.wall_ops_per_s", "ops/s", medianRound(tr.rounds, wallOpsPerSec)},
		metric{"wall_sim_ratio", "ratio", medianRound(r.host, func(rr *roundResult) float64 {
			return rr.wall / rr.simDur.Seconds()
		})},
		metric{"bench.cpu_share", "ratio", share("bench")},
	)
	return ms
}

// Paper references for the fidelity cross-check (§VII-A, Figs. 9-10):
// virtio and emulation are "over 6x" and "over 20x" slower than NeSC below
// 4 KB, NeSC latency is "similar to that obtained by the host", and the
// prototype peaks at ~800 MB/s reads and ~1 GB/s writes.
var paperRefs = []struct {
	name, unit string
	ref        float64
}{
	{"fidelity.virtio_over_nesc_1k", "ratio", 6},
	{"fidelity.emul_over_nesc_1k", "ratio", 20},
	{"fidelity.nesc_over_host_1k", "ratio", 1},
	{"fidelity.nesc_32k_read_mb_s", "MB/s", 800},
	{"fidelity.nesc_32k_write_mb_s", "MB/s", 1000},
}

// backendMetrics reports backends-qd1's per-phase p50 latencies and the
// fidelity ratios built from them. Other workloads do not run these phases
// and report 0.
func (r *report) backendMetrics() []metric {
	ops := r.sample()
	p50 := map[string]float64{}
	var ms []metric
	for b, ph := range rawBackends {
		for s, size := range []string{"1k", "32k"} {
			for _, dir := range []string{"read", "write"} {
				class, write := int8(2*b+s), dir == "write"
				v := percentile(latencies(ops, func(o opRec) bool { return o.class == class && o.write == write }), 0.5)
				key := fmt.Sprintf("backend.%s.%s.%s_p50_us", ph.name, size, dir)
				p50[key] = v
				ms = append(ms, metric{key, "sim-us", v})
			}
		}
	}
	ratio := func(a, b string) float64 {
		if p50[b] == 0 {
			return 0
		}
		return p50[a] / p50[b]
	}
	mbps := func(key string) float64 {
		if p50[key] == 0 {
			return 0
		}
		return 32768 / p50[key] // bytes per µs = MB/s
	}
	vals := []float64{
		ratio("backend.virtio.1k.read_p50_us", "backend.nesc.1k.read_p50_us"),
		ratio("backend.emulation.1k.read_p50_us", "backend.nesc.1k.read_p50_us"),
		ratio("backend.nesc.1k.read_p50_us", "backend.host.1k.read_p50_us"),
		mbps("backend.nesc.32k.read_p50_us"),
		mbps("backend.nesc.32k.write_p50_us"),
	}
	var maxErr float64
	for i, ref := range paperRefs {
		ms = append(ms, metric{ref.name, ref.unit, vals[i]})
		if vals[i] != 0 {
			maxErr = math.Max(maxErr, math.Abs(vals[i]-ref.ref)/ref.ref)
		}
	}
	return append(ms, metric{"fidelity.max_rel_err", "ratio", maxErr})
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// summary writes the human-readable report to w.
func (r *report) summary(w io.Writer) {
	ops := r.sample()
	var reads int
	for _, op := range ops {
		if !op.write {
			reads++
		}
	}
	fmt.Fprintf(w, "perfbench %s: %d rounds (%d in the simulated sample: %d reads, %d writes)\n",
		r.wl.name, len(r.rounds), r.wl.rounds, reads, len(ops)-reads)
	fmt.Fprint(w, "  per round: ops per wall s / per CPU s, set-up CPU s:")
	for _, rr := range r.rounds {
		fmt.Fprintf(w, " %.0f/%.0f/%.3f", wallOpsPerSec(rr), cpuOpsPerSec(rr), setupTotal(rr.setup))
	}
	fmt.Fprintln(w)
	if r.tr != nil && r.wl.name == "backends-qd1" {
		fmt.Fprintln(w, "fidelity vs paper (model error = (model - paper) / paper):")
		for _, m := range r.backendMetrics() {
			for _, ref := range paperRefs {
				if m.name == ref.name {
					fmt.Fprintf(w, "  %-30s model %8.2f  paper %6.0f  error %+6.1f%%\n", m.name, m.value, ref.ref, 100*(m.value-ref.ref)/ref.ref)
				}
			}
		}
	}
	for _, rr := range r.all() {
		for _, p := range rr.problems {
			fmt.Fprintln(w, "FAIL:", p)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
}

// print writes the result line and returns the exit code.
func (r *report) print(ms []metric) int {
	attempted, failed := r.attempted()
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if failed != 0 {
		return 1
	}
	return 0
}
