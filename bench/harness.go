package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// kind is what a caller operation is, as the end-to-end metrics group
// them. "U1" operations act on a set with no prior state, "U3"
// operations on a derived set.
type kind int

const (
	saveU1 kind = iota
	saveU3
	recoverU1
	recoverU3
	partial
	// other operations count toward throughput and the failure count
	// only (the multipart recover of remote-pull).
	other
	numKinds
)

var kindNames = [numKinds]string{"save_u1", "save_u3", "recover_u1", "recover_u3", "partial", "other"}

func saveKind(version int) kind {
	if version == 0 {
		return saveU1
	}
	return saveU3
}

func recoverKind(version int) kind {
	if version == 0 {
		return recoverU1
	}
	return recoverU3
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    uint64
	seconds float64
	// callers is the number of closed-loop caller goroutines of the
	// client-server workloads, and the WithConcurrency of dedup-serve;
	// never more than the CPUs present.
	callers int
	// nLocal and nRemote are the fleet sizes of the in-process and the
	// client-server workloads.
	nLocal, nRemote int
	// maxIterations, when positive, ends a loop after that many
	// iterations (the smoke test's toy scale).
	maxIterations int
	// workdir holds what the run writes to disk: the directory backend's
	// own drive.
	workdir string
}

// newRunConfig is a run at the benchmark's own scale. The callers are as
// many as the CPUs present, up to maxCallers: a load generator with more
// callers than CPUs measures its own queueing, not the system.
func newRunConfig(seed uint64, seconds float64, workdir string) *runConfig {
	return &runConfig{seed: seed, seconds: seconds, callers: min(maxCallers, runtime.NumCPU()),
		nLocal: localModels, nRemote: remoteModels, workdir: workdir}
}

// bench is one named workload: a traffic shape and the system it runs against.
type bench interface {
	// setup generates the inputs from the seed and starts the stores,
	// server or cluster under test. With a recorder, the seams are
	// wrapped with the benchmark's timers.
	setup(rc *runConfig, rec *recorder) error
	// loop issues operations in a closed loop until the deadline.
	loop(ctx context.Context, deadline time.Time, col *collector)
	// storage reports, after the loop, the bytes the stores hold and the
	// logical parameter bytes of the live sets. A disagreement between
	// the files and core.Du counts as a failure in col.
	storage(col *collector) (physical, logical int64)
	// inputs returns the lineage the layer drives take their bytes
	// from, and a digest of the inputs and the operation schedule.
	inputs() (*lineage, string)
	// callers is the number of goroutines that issue operations.
	callers() int
	// layerMetrics adds, after a traced loop, the per-layer numbers of
	// the layers only this workload runs.
	layerMetrics(ctx context.Context, rec *recorder, out map[string]float64) error
	close()
}

// collector gathers the caller-side samples of one loop.
type collector struct {
	rec *recorder

	mu        sync.Mutex
	ms        [numKinds][]float64
	byDepth   [cycles + 1][]float64 // full-recover samples by chain depth
	logical   int64                 // parameter bytes saved plus recovered
	attempted int
	failed    int
}

// timed runs one caller operation and records its latency. logical is
// the parameter bytes it saves or recovers. It reports whether the
// operation succeeded; the caller then checks the bytes and calls wrong
// on a mismatch, outside the timed region.
func (c *collector) timed(ctx context.Context, k kind, logical int64, fn func(ctx context.Context) error) bool {
	return c.timedAt(ctx, k, 0, logical, fn)
}

// timedAt is timed for a full recover of the set at the given chain
// depth.
func (c *collector) timedAt(ctx context.Context, k kind, depth int, logical int64, fn func(ctx context.Context) error) bool {
	var end func(error)
	if c.rec != nil {
		ctx, end = c.rec.startOp(ctx, kindNames[k])
	}
	start := time.Now()
	err := fn(ctx)
	d := time.Since(start)
	if end != nil {
		end(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.failed <= 5 {
			fmt.Fprintf(os.Stderr, "bench: %s failed: %v\n", kindNames[k], err)
		}
		return false
	}
	c.ms[k] = append(c.ms[k], d.Seconds()*1e3)
	if k == recoverU3 {
		c.byDepth[depth] = append(c.byDepth[depth], d.Seconds()*1e3)
	}
	c.logical += logical
	return true
}

// fail counts a failure that is not a timed operation's own error: a
// check between operations, or bookkeeping the run depends on.
func (c *collector) fail(what string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if c.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: %s\n", what)
	}
}

// wrong counts an operation that succeeded but returned wrong bytes.
func (c *collector) wrong(what string) { c.fail(what + " returned wrong bytes") }

// deepest returns the full-recover samples of the longest chain the loop
// recovered: depth 3 unless the loop was cut short.
func (c *collector) deepest() []float64 {
	for d := cycles; d > 0; d-- {
		if len(c.byDepth[d]) > 0 {
			return c.byDepth[d]
		}
	}
	return nil
}

func (c *collector) ops() int {
	n := 0
	for _, s := range c.ms {
		n += len(s)
	}
	return n
}

// busyMS is the time the callers spent waiting for replies: the sum of
// every operation's latency.
func (c *collector) busyMS() float64 {
	var t float64
	for _, s := range c.ms {
		for _, ms := range s {
			t += ms
		}
	}
	return t
}
