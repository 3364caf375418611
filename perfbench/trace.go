package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"nesc/internal/sim"
)

// span is one call the benchmark made into a layer: a setup step or one
// request. Spans carry both clocks; spans of one request share Req.
type span struct {
	ID        int      `json:"id"`
	Parent    int      `json:"parent"`
	Req       uint64   `json:"req"`
	Name      string   `json:"name"`
	SimStart  sim.Time `json:"sim_start_ns"`
	SimEnd    sim.Time `json:"sim_end_ns"`
	WallStart int64    `json:"wall_start_ns"`
	WallEnd   int64    `json:"wall_end_ns"`
}

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, req uint64, now sim.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		SimStart: now, WallStart: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int, now sim.Time) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.SimEnd, s.WallEnd = now, time.Since(t.t0).Nanoseconds()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileShares reads a runtime/pprof CPU profile and returns the share of
// samples per layer by the package of the sample's leaf (flat) frame, with
// Go's runtime split into GC work and proc-handoff work (channel operations
// and the goroutine switches they cause), judged on the whole stack.
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 {
			continue
		}
		fns := p.stack(s.locs)
		if len(fns) == 0 {
			continue
		}
		n := float64(s.count)
		total += n
		shares[layerOf(fns[0])] += n
		gc, ch := false, false
		for _, fn := range fns {
			gc = gc || isGC(fn)
			ch = ch || isHandoff(fn)
		}
		if gc {
			shares["runtime.gc"] += n
		} else if ch {
			shares["runtime.chan"] += n
		}
	}
	if total == 0 {
		return nil, errors.New("profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// layerOf names the layer a function belongs to: the internal module for
// the simulator's packages, "bench" for this load generator.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "main":
		return "bench"
	case pkg == "nesc/internal/bench":
		return "platform" // assembly code, not the load generator
	case strings.HasPrefix(pkg, "nesc/internal/"):
		switch l := strings.TrimPrefix(pkg, "nesc/internal/"); l {
		case "metrics", "trace", "slo":
			return "telemetry"
		default:
			return l
		}
	}
	return pkg
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.markroot", "runtime.scanobject", "runtime.bgsweep", "runtime.sweepone", "runtime.gcStart"} {
		if fn == p {
			return true
		}
	}
	return false
}

func isHandoff(fn string) bool {
	for _, p := range []string{"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
		"runtime.gopark", "runtime.goready", "runtime.schedule", "runtime.park_m", "runtime.findRunnable"} {
		if fn == p {
			return true
		}
	}
	return false
}

// A minimal decoder for the pprof profile.proto fields the shares need.

type pSample struct {
	locs  []uint64
	count int64
}

type pProfile struct {
	samples []pSample
	locFn   map[uint64][]uint64 // location -> function ids, innermost first
	fnName  map[uint64]int64    // function -> string index
	strs    []string
}

// stack returns the function names of a sample, leaf first.
func (p *pProfile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locFn[l] {
			if i := p.fnName[f]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

func parseProfile(b []byte) (*pProfile, error) {
	p := &pProfile{locFn: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := pbFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s pSample
			var vals []int64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					if data == nil {
						s.locs = append(s.locs, v)
						return nil
					}
					return pbPacked(data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					if data == nil {
						vals = append(vals, int64(v))
						return nil
					}
					return pbPacked(data, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = vals[0] // sample_type[0] of a CPU profile: sample count
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFn[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6: // string table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// pbFields walks the fields of one protobuf message. Varint fields arrive in
// v with data nil; length-delimited fields arrive in data (never nil).
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l) : n+int(l)]
			if data == nil {
				data = []byte{}
			}
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

func pbPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// simKernelNs times the simulation kernel directly: host nanoseconds per
// Proc.Sleep round trip (a proc handoff out and back) and per event
// dispatched through Engine.After. Each is the median of five repetitions.
func simKernelNs() (handoff, event float64) {
	const n = 100000
	var hs, es []float64
	for rep := 0; rep < 5; rep++ {
		e := sim.NewEngine()
		var d time.Duration
		e.Go("handoff", func(p *sim.Proc) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
			d = time.Since(t0)
		})
		e.Run()
		e.Shutdown()
		hs = append(hs, float64(d.Nanoseconds())/n)

		e = sim.NewEngine()
		k := 0
		var tick func()
		tick = func() {
			if k++; k < n {
				e.After(1, tick)
			}
		}
		e.After(0, tick)
		t0 := time.Now()
		e.Run()
		es = append(es, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(hs), median(es)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
