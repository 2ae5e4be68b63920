package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []endToEndDef `json:"end_to_end"`
	PerLayer   []perLayerDef `json:"per_layer"`
}

type endToEndDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// catalogue is BENCHMARK.json as metrics.go defines it.
func catalogue() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEndDefs {
		f.EndToEnd = append(f.EndToEnd, endToEndDef{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerDefs {
		f.PerLayer = append(f.PerLayer, perLayerDef{d.Name, d.Unit, d.Better})
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON fails when BENCHMARK.json and the catalogue in
// metrics.go disagree, or when a name breaks the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	want := catalogue()
	text, _ := json.MarshalIndent(want, "", "  ")
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("%v\nBENCHMARK.json should read:\n%s", err, text)
	}
	var got benchmarkFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; it should read:\n%s", text)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range want.EndToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, bound %v", d.Name, d.Unit, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("setup_s is missing from the end-to-end metrics")
	}
	for _, d := range want.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("per-layer metric %s: unit %q", d.Name, d.Unit)
		}
	}
}

// TestSmoke runs every workload at toy scale, untraced and traced, and
// checks that every catalogued metric comes out finite: a renamed or
// broken public function of the repository fails here, not silently in
// a later benchmark run.
func TestSmoke(t *testing.T) {
	rc := newRunConfig(7, 2, t.TempDir())
	rc.nLocal, rc.nRemote, rc.maxIterations = 32, 32, 1
	for _, wd := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), wd.Name, rc, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s (traced %v): %v", wd.Name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s (traced %v): %d of %d operations failed", wd.Name, traced, res.Failed, res.Attempted)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics, want %d", wd.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v", wd.Name, traced, d.Name, v)
				}
			}
		}
	}
}
