// Command bench is the repository's benchmark: six named workloads over
// the paper's fleet scenario, measured end to end (time-to-save,
// time-to-recover, selective recovery, storage, throughput, allocation)
// and, in a second traced run, layer by layer. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// Fleet sizes: the in-process workloads run the paper's scenario at
// n = 2000 (a 40 MB set); the client-server workloads move whole sets
// over loopback many times per run and use n = 256.
const (
	localModels  = 2000
	remoteModels = 256
	// maxCallers is the number of closed-loop callers of the client-server
	// workloads, and the WithConcurrency of dedup-serve and the nodes.
	maxCallers = 2
	// runSeconds is how long a run measures unless told otherwise, and
	// BENCHMARK.json's run_seconds.
	runSeconds = 15
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 2023, "seed every input is generated from")
	seconds := flag.Float64("seconds", runSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 records spans at the seams and reports the per-layer metrics; 0 reports the end-to-end metrics")
	out := flag.String("out", "out", "directory for the output documents, the traces and the directory backend's drive")
	aa := flag.Bool("aa", false, "run the suite twice on this binary and compare the end-to-end metrics against their bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, -trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, wd := range workloadDefs {
			names = append(names, wd.Name)
		}
	} else if _, err := newBench(*workload); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	workdir, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(workdir)
	s := &session{rc: newRunConfig(*seed, *seconds, workdir), out: *out, commit: gitCommit()}

	switch {
	case *aa:
		return s.runAA(names)
	case *workload == "all":
		// One command, every metric: each workload untraced, then traced.
		return max(s.runAll(names, false), s.runAll(names, true))
	default:
		return s.runAll(names, *trace == 1)
	}
}

// session is one invocation's settings.
type session struct {
	rc     *runConfig
	out    string
	commit string
}

// runOne runs one workload, prints its listing and contract line and
// writes its document. The exit code is 0, 1 when an operation failed or
// returned wrong bytes, 2 when the run itself could not complete.
func (s *session) runOne(name string, traced bool) int {
	res, err := runWorkload(context.Background(), name, s.rc, traced, filepath.Clean(s.out))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if err := writeDocument(s.out, s.rc, res, s.commit); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	printListing(os.Stdout, s.rc, res)
	if err := printContractLine(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if !res.correct() {
		return 1
	}
	return 0
}

func (s *session) runAll(names []string, traced bool) int {
	code := 0
	for _, name := range names {
		code = max(code, s.runOne(name, traced))
	}
	return code
}

// runFresh runs one workload untraced in a fresh process of this binary,
// as the driver does, echoes its output and returns what its contract line
// reports. A workload that runs after others in one process finds their
// heap: paper-update's initial save then read 8 to 11 % slower and
// remote-pull's set-up 12 % faster than in a process of their own.
func (s *session) runFresh(name string) (*result, int) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return nil, 2
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(s.rc.seed, 10),
		"-seconds", strconv.FormatFloat(s.rc.seconds, 'g', -1, 64), "-out", s.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() == 1 {
		code = 1 // it ran, and an operation failed
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "bench: running %s: %v\n", name, err)
		return nil, 2
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	res := &result{Workload: name}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: reading the result of %s: %v\n", name, err)
		return nil, 2
	}
	return res, code
}

// runAA runs the untraced suite twice, the second time in reverse order,
// and compares the two.
func (s *session) runAA(names []string) int {
	passes := [2]map[string]*result{{}, {}}
	code := 0
	for pass := range passes {
		for i := range names {
			name := names[i]
			if pass == 1 {
				name = names[len(names)-1-i]
			}
			res, c := s.runFresh(name)
			if c == 2 {
				return 2
			}
			code = max(code, c)
			passes[pass][name] = res
		}
	}
	if !compareAA(os.Stdout, passes[0], passes[1]) {
		code = max(code, 1)
	}
	return code
}
