package experiments

import (
	"context"
	"fmt"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/docstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
	"github.com/mmm-go/mmm/internal/workload"
)

// Options parameterizes an experiment run. The zero value is not
// usable; start from DefaultOptions.
type Options struct {
	// ArchName selects FFNN-48 (default), FFNN-69, or CIFAR.
	ArchName string
	// NumModels is the fleet size. The paper uses 5000; benchmarks
	// default lower so `go test -bench` stays tractable.
	NumModels int
	// Cycles is the number of U3 iterations (paper: 3).
	Cycles int
	// FullRate/PartialRate are the per-cycle update fractions.
	FullRate    float64
	PartialRate float64
	// Setup selects the modeled hardware profile for timing runs.
	Setup latency.Setup
	// Runs is the sample count for median timings (paper: 5).
	Runs int
	// Mode selects real training or fast deterministic perturbation
	// (see workload.Mode; storage/TTS results are identical).
	Mode workload.Mode
	// SamplesPerDataset / Epochs bound the per-update training work.
	SamplesPerDataset int
	Epochs            int
	// Seed is the scenario root seed.
	Seed uint64
	// Workers is the per-approach save/recover concurrency
	// (core.WithConcurrency). 0 or 1 keeps the paper-faithful serial
	// execution; results are bit-identical at any setting.
	Workers int
}

// DefaultOptions returns the paper's configuration at a reduced fleet
// size suitable for benchmarks; set NumModels to 5000 for paper scale.
func DefaultOptions() Options {
	return Options{
		ArchName:          "FFNN-48",
		NumModels:         500,
		Cycles:            3,
		FullRate:          0.05,
		PartialRate:       0.05,
		Setup:             latency.M1(),
		Runs:              5,
		Mode:              workload.ModeTrain,
		SamplesPerDataset: 60,
		Epochs:            1,
		Seed:              2023,
		Workers:           1,
	}
}

// workloadConfig translates Options into a workload configuration.
func (o Options) workloadConfig() (workload.Config, error) {
	arch, err := nn.ByName(o.ArchName)
	if err != nil {
		return workload.Config{}, err
	}
	var cfg workload.Config
	if o.ArchName == "CIFAR" {
		cfg = workload.CIFARConfig()
	} else {
		cfg = workload.DefaultConfig()
		cfg.Arch = arch
	}
	cfg.NumModels = o.NumModels
	cfg.FullUpdateRate = o.FullRate
	cfg.PartialUpdateRate = o.PartialRate
	cfg.Mode = o.Mode
	cfg.Seed = o.Seed
	if o.SamplesPerDataset > 0 {
		cfg.SamplesPerDataset = o.SamplesPerDataset
	}
	if o.Epochs > 0 {
		cfg.Epochs = o.Epochs
	}
	return cfg, nil
}

// trace is one executed scenario: the model-set state after U1 and
// after every U3 iteration, plus the update records per iteration.
// Running the scenario once and replaying it through each approach
// keeps the expensive part (training) out of the per-approach loop.
type trace struct {
	cfg      workload.Config
	registry *dataset.Registry
	states   []*core.ModelSet
	updates  [][]core.ModelUpdate
	train    *core.TrainInfo
}

// runScenario executes U1 + Cycles×U3 once.
func runScenario(o Options) (*trace, error) {
	cfg, err := o.workloadConfig()
	if err != nil {
		return nil, err
	}
	reg := dataset.NewRegistry()
	fleet, err := workload.New(cfg, reg)
	if err != nil {
		return nil, err
	}
	tr := &trace{cfg: cfg, registry: reg, train: fleet.TrainInfo()}
	tr.states = append(tr.states, fleet.Set.Clone())
	for c := 0; c < o.Cycles; c++ {
		ups, err := fleet.RunCycle()
		if err != nil {
			return nil, err
		}
		tr.updates = append(tr.updates, ups)
		tr.states = append(tr.states, fleet.Set.Clone())
	}
	return tr, nil
}

// rig is one approach wired to its own instrumented stores and clock.
type rig struct {
	name     string
	approach core.Approach
	stores   core.Stores
	clock    *latency.Clock
}

// newRig builds one approach over fresh in-memory stores using the
// given latency setup.
func newRig(setup latency.Setup, reg *dataset.Registry, workers int, name string) *rig {
	if workers < 1 {
		workers = 1
	}
	clock := &latency.Clock{}
	st := core.Stores{
		Docs:     docstore.New(backend.NewMem(), setup.Doc, clock),
		Blobs:    blobstore.New(backend.NewMem(), setup.Blob, clock),
		Datasets: reg,
	}
	opt := core.WithConcurrency(workers)
	r := &rig{name: name, stores: st, clock: clock}
	switch name {
	case "MMlib-base":
		r.approach = core.NewMMlibBase(st, opt)
	case "Baseline":
		r.approach = core.NewBaseline(st, opt)
	case "Update":
		r.approach = core.NewUpdate(st, opt)
	case "Provenance":
		r.approach = core.NewProvenance(st, opt)
	default:
		panic(fmt.Sprintf("experiments: unknown approach %q", name))
	}
	return r
}

// newRigs builds the four approaches over fresh in-memory stores using
// the given latency setup, all sharing the scenario's dataset registry.
func newRigs(setup latency.Setup, reg *dataset.Registry, workers int) []*rig {
	rigs := make([]*rig, len(ApproachOrder))
	for i, name := range ApproachOrder {
		rigs[i] = newRig(setup, reg, workers, name)
	}
	return rigs
}

// saveAll replays the trace through one rig and returns the per-use-
// case save results and set IDs.
func saveAll(r *rig, tr *trace) ([]core.SaveResult, []string, error) {
	var results []core.SaveResult
	var ids []string
	base := ""
	for i, state := range tr.states {
		req := core.SaveRequest{Set: state, Base: base, Train: tr.train}
		if i > 0 {
			req.Updates = tr.updates[i-1]
		}
		res, err := r.approach.SaveContext(context.Background(), req)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: saving use case %d: %w", r.name, i, err)
		}
		results = append(results, res)
		ids = append(ids, res.SetID)
		base = res.SetID
	}
	return results, ids, nil
}
