package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// docSchema versions the output document; raise it when a field changes
// meaning.
const docSchema = "mmm-bench/1"

// document is what one run leaves in the output directory.
type document struct {
	Schema      string  `json:"schema"`
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	FlushPolicy string  `json:"flush_policy"`
	Correct     bool    `json:"correct"`
	*result
}

// gitCommit asks git for the checked-out commit; a checkout that is not
// a repository reports "unknown".
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeDocument(dir string, rc *runConfig, res *result, commit string) error {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	data, err := json.MarshalIndent(document{
		Schema: docSchema, Commit: commit, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: rc.seed, Seconds: rc.seconds, FlushPolicy: flushPolicy,
		Correct: res.correct(), result: res,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", res.Workload, rc.seed, mode)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// printListing prints every metric of a run by name, with its unit.
func printListing(w io.Writer, rc *runConfig, res *result) {
	mode, defs := "untraced", endToEndDefs
	if res.Traced {
		mode, defs = "traced", perLayerDefs
	}
	fmt.Fprintf(w, "# %s (%s) seed %d: %d operations, %d failed; %d callers; measured %.1f s of %.0f, wall %.1f s; schedule %s; flush: %s\n",
		res.Workload, mode, rc.seed, res.Attempted, res.Failed, res.Callers, res.MeasuredS, rc.seconds, res.WallS, res.ScheduleHash, flushPolicy)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		if v.summary != nil {
			fmt.Fprintf(w, "%-32s %14.4f %-6s (n=%d, quartiles %.4f %.4f %.4f)\n", d.Name, v.Value, v.Unit, v.N, v.Q1, v.Median, v.Q3)
			continue
		}
		fmt.Fprintf(w, "%-32s %14.4f %s\n", d.Name, v.Value, v.Unit)
	}
}

// printContractLine prints the one-line JSON object the driver reads.
func printContractLine(w io.Writer, res *result) error {
	type plain struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]plain{}
	for name, v := range res.Metrics {
		metrics[name] = plain{v.Value, v.Unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]plain `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// compareAA prints, for two runs of the same code, every end-to-end
// metric of every workload with its relative difference and bound, and
// reports whether all pairs agree.
func compareAA(w io.Writer, first, second map[string]*result) bool {
	ok := true
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s %7s\n", "workload", "metric", "run A", "run B", "diff", "bound")
	for _, wd := range workloadDefs {
		a, b := first[wd.Name], second[wd.Name]
		if a == nil || b == nil {
			continue
		}
		for _, d := range endToEndDefs {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := (vb - va) / va
			if diff < 0 {
				diff = (va - vb) / vb
			}
			verdict := ""
			if diff > d.Bound {
				verdict, ok = "  OUT OF BOUNDS", false
			}
			fmt.Fprintf(w, "%-18s %-16s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", wd.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}
