package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/storage/cache"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// setupRepeats is how often a run sets up: setup_s is the median, so one
// slow start does not read as a regression.
const setupRepeats = 3

// A traced run splits its seconds: an untraced loop first, to compare
// with, then the traced loop; the layer drives take the rest.
const (
	untracedShare = 0.3
	tracedShare   = 0.4
)

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples and the quartiles describe the distribution behind a
	// percentile metric.
	*summary
}

// result is everything one run of one workload measured.
type result struct {
	Workload     string           `json:"workload"`
	Traced       bool             `json:"traced"`
	WallS        float64          `json:"wall_s"`
	MeasuredS    float64          `json:"measured_s"`
	Callers      int              `json:"callers"`
	ScheduleHash string           `json:"schedule_hash"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	Metrics      map[string]value `json:"metrics"`
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

func newBench(name string) (bench, error) {
	switch name {
	case "paper-baseline":
		return &localWorkload{spec: localSpec{approach: "baseline", partials: 50}}, nil
	case "paper-update":
		// Update's selective recovery walks the chain per model and is
		// ~15x slower than Baseline's; fewer per iteration keep the saves
		// and recovers sampled.
		return &localWorkload{spec: localSpec{approach: "update", partials: 10}}, nil
	case "paper-provenance":
		// A derived save is 80 us of documents beside 1.2 s of retraining
		// per iteration; saving the chain twelve times samples it as often
		// as its jitter needs, for 300 ms. A selective recover retrains the
		// selected models that were updated, none to several of the
		// sixteen, so its tail needs more samples than the others' too;
		// and recovering U1, a 37 ms load, happens once per 1.9 s
		// iteration unless it is repeated.
		return &localWorkload{spec: localSpec{approach: "provenance", chains: 12, initialRecovers: 4, partials: 60}}, nil
	case "dedup-serve":
		return &localWorkload{spec: localSpec{approach: "baseline", serving: true, partials: 250, hot: 32}}, nil
	case "remote-pull":
		return &remoteWorkload{}, nil
	case "cluster-mixed":
		return &clusterWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// heapLimit is the soft limit that replaces the collector's pacing.
const heapLimit = 3 << 30

// The collector is kept out of the timed regions: pacing is off, the
// loops collect explicitly between iterations (between steps, for the
// client-server workloads), and only a heap that reaches heapLimit is
// collected mid-operation. An iteration then allocates from the memory the
// previous one freed, at the same addresses, and every operation costs
// what it cost the last time. With the default pacing the heap shrinks
// and regrows around every 40 MB buffer, and on a virtual machine that
// backs guest memory lazily each regrowth pays first-touch faults: the
// same copy takes 14 ms in recycled memory and 40 ms in fresh. What a
// change costs the collector shows in alloc_ratio instead.
func init() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(heapLimit)
}

func collectGarbage() { runtime.GC() }

// heapAllocs is the cumulative bytes allocated on the Go heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func cacheStats(st core.Stores) (cache.Stats, bool) {
	c := cas.For(st.Blobs).ChunkCache()
	if c == nil {
		return cache.Stats{}, false
	}
	return c.Stats(), true
}

// setUp sets the workload up setupRepeats times and returns the last
// instance with the median set-up time.
func setUp(name string, rc *runConfig) (bench, float64, error) {
	var times []float64
	var b bench
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
			collectGarbage()
		}
		var err error
		if b, err = newBench(name); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		if err := b.setup(rc, nil); err != nil {
			b.close()
			return nil, 0, fmt.Errorf("setting up %s: %w", name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return b, median(times), nil
}

// measured is one loop's samples with what the process spent on it.
type measured struct {
	col               *collector
	seconds           float64
	allocs            uint64
	gcs               uint64
	physical, logical int64
}

func measure(ctx context.Context, b bench, seconds float64, rec *recorder) measured {
	// One iteration before timing fills what fills lazily: heap spans
	// the process touches for the first time, connections, caches. Its
	// samples are dropped; its failures are not.
	warm := &collector{}
	b.loop(ctx, time.Now(), warm)
	if rec != nil {
		rec.reset()
	}
	collectGarbage()
	col := &collector{rec: rec, attempted: warm.attempted, failed: warm.failed}
	allocs, gcs := heapAllocs(), gcCycles()
	start := time.Now()
	b.loop(ctx, start.Add(time.Duration(seconds*float64(time.Second))), col)
	m := measured{col: col, seconds: time.Since(start).Seconds(), allocs: heapAllocs() - allocs, gcs: gcCycles() - gcs}
	m.physical, m.logical = b.storage(col)
	return m
}

// runWorkload runs one workload once: untraced for the end-to-end
// metrics, or traced for the per-layer ones. traceDir is where the
// traced run writes its spans.
func runWorkload(ctx context.Context, name string, rc *runConfig, traced bool, traceDir string) (*result, error) {
	wall := time.Now()
	b, setupS, err := setUp(name, rc)
	if err != nil {
		return nil, err
	}
	defer func() { b.close() }()
	res := &result{Workload: name, Traced: traced, Callers: b.callers(), Metrics: map[string]value{}}

	if !traced {
		m := measure(ctx, b, rc.seconds, nil)
		_, res.ScheduleHash = b.inputs()
		res.MeasuredS = m.seconds
		res.Attempted, res.Failed = m.col.attempted, m.col.failed
		endToEnd(res, m, setupS, b.callers())
		res.WallS = time.Since(wall).Seconds()
		return res, checkFinite(res)
	}

	plain := measure(ctx, b, rc.seconds*untracedShare, nil)
	ln, hash := b.inputs()
	res.ScheduleHash = hash
	b.close()

	rec := newRecorder()
	if b, err = newBench(name); err != nil {
		return nil, err
	}
	if err := b.setup(rc, rec); err != nil {
		return nil, fmt.Errorf("setting up %s traced: %w", name, err)
	}
	m := measure(ctx, b, rc.seconds*tracedShare, rec)
	res.MeasuredS = plain.seconds + m.seconds
	res.Attempted = plain.col.attempted + m.col.attempted
	res.Failed = plain.col.failed + m.col.failed

	out := map[string]float64{}
	for _, d := range perLayerDefs {
		out[d.Name] = 0
	}
	spans := rec.spans()
	analyze(spans, ln.setBytes(), out)
	out["core.ttr_depth3_ms"] = median(m.col.deepest())
	out["core.tts_u3_p90_ms"] = summarize(m.col.ms[saveU3]).P90
	out["core.ttr_u3_p90_ms"] = summarize(m.col.ms[recoverU3]).P90
	out["trace.overhead_ratio"] = overhead(m.col, plain.col)
	out["process.gc_cycles"] = float64(m.gcs)
	out["process.alloc_bytes_per_op"] = ratio(float64(m.allocs), float64(m.col.ops()))
	rec.reset()
	if err := b.layerMetrics(ctx, rec, out); err != nil {
		return nil, fmt.Errorf("per-layer metrics of %s: %w", name, err)
	}
	spans = append(spans, rec.spans()...)
	mmlibModels := driveModels / 2
	if name == "paper-baseline" {
		mmlibModels = rc.nLocal // the paper's full fourth row, once
	}
	if err := driveLayers(ln, rc, mmlibModels, out); err != nil {
		return nil, err
	}
	out["process.peak_rss_mb"] = peakRSSMB()
	for _, d := range perLayerDefs {
		res.Metrics[d.Name] = value{Value: out[d.Name], Unit: d.Unit}
	}
	if err := writeTrace(filepath.Join(traceDir, "trace-"+name+".json"), spans); err != nil {
		return nil, err
	}
	res.WallS = time.Since(wall).Seconds()
	return res, checkFinite(res)
}

// endToEnd derives the end-to-end metrics from one untraced loop.
func endToEnd(res *result, m measured, setupS float64, callers int) {
	col := m.col
	put := func(name string, v float64, s *summary) {
		res.Metrics[name] = value{Value: v, Unit: unitOf(endToEndDefs, name), summary: s}
	}
	p50 := func(name string, k kind) {
		s := summarize(col.ms[k])
		put(name, s.Median, &s)
	}
	put("setup_s", setupS, nil)
	p50("tts_u1_p50_ms", saveU1)
	p50("tts_u3_p50_ms", saveU3)
	p50("ttr_u1_p50_ms", recoverU1)
	p50("ttr_u3_p50_ms", recoverU3)
	p50("partial_p50_ms", partial)
	s := summarize(col.ms[partial])
	put("partial_p90_ms", s.P90, &s)
	put("stored_ratio", ratio(float64(m.physical), float64(m.logical)), nil)
	// Completed operations per second of the closed loop: each caller
	// issues its next operation when the last has answered, so its rate is
	// its operations over the time it spent waiting for them, stalls and
	// queueing included, and the loop's rate is the callers' together. What
	// the harness does between operations (checking bytes, collecting the
	// heap) is not the system's time and is left out.
	put("ops_s", ratio(float64(col.ops()*callers), col.busyMS()/1e3), nil)
	put("alloc_ratio", ratio(float64(m.allocs), float64(col.logical)), nil)
}

// overhead is the traced loop's time over the untraced loop's, each taken
// as the medians per operation kind weighted by the traced loop's mix.
func overhead(traced, plain *collector) float64 {
	var t, p float64
	for k := range traced.ms {
		if len(traced.ms[k]) == 0 || len(plain.ms[k]) == 0 {
			continue
		}
		w := float64(len(traced.ms[k]))
		t += w * median(traced.ms[k])
		p += w * median(plain.ms[k])
	}
	return ratio(t, p)
}

// checkFinite rejects a result with a metric that is missing its samples
// or is not a number.
func checkFinite(res *result) error {
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", res.Workload, name, v.Value)
		}
		if !res.Traced && v.Value <= 0 {
			return fmt.Errorf("%s: end-to-end metric %s has no measurement", res.Workload, name)
		}
	}
	return nil
}
