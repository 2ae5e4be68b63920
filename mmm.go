// Package mmm is a Go library for efficient multi-model management: it
// saves and recovers *sets* of deep-learning models that share one
// architecture but have diverging parameters (one model per battery
// cell, per user, per device, ...), reproducing the approaches of
// "Efficient Multi-Model Management" (EDBT 2023).
//
// # Approaches
//
//   - NewBaseline: one metadata document, one architecture definition,
//     and one concatenated parameter binary per set. Fast saves, fast
//     independent recovery.
//   - NewUpdate: Baseline for the initial set, then only hash-detected
//     changed layers per derived set. Much smaller derived saves, a
//     recursive (but bounded, see Update.SnapshotInterval) recovery.
//   - NewProvenance: Baseline for the initial set, then training
//     provenance (pipeline info once, one dataset reference per updated
//     model) instead of parameters. Tiny derived saves; recovery
//     re-executes training deterministically and is therefore exact but
//     compute-heavy.
//   - NewMMlibBase: the single-model reference point the paper compares
//     against (per-model metadata, architecture, code, environment);
//     provided for benchmarking, not for production use.
//
// Advise picks an approach for a scenario, implementing the heuristic
// selection the paper names as future work.
//
// # Quickstart
//
//	stores := mmm.NewMemStores()
//	approach := mmm.NewBaseline(stores, mmm.WithConcurrency(8))
//	set, _ := mmm.NewModelSet(mmm.FFNN48(), 1000, seed)
//	res, _ := approach.SaveContext(ctx, mmm.SaveRequest{Set: set})
//	recovered, _ := approach.RecoverContext(ctx, res.SetID)
//
// Saves and recoveries take a context and honor cancellation: an
// interrupted save rolls back everything it wrote. WithConcurrency
// sets the per-operation worker count; results are bit-identical at
// any setting, so concurrency is purely a throughput knob.
//
// See examples/ for complete programs, including the paper's battery
// fleet scenario and bit-exact provenance recovery.
package mmm

import (
	"fmt"

	"github.com/mmm-go/mmm/internal/cluster"
	"github.com/mmm-go/mmm/internal/codec"
	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/scrub"
	"github.com/mmm-go/mmm/internal/server"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/docstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
	"github.com/mmm-go/mmm/internal/tensor"
	"github.com/mmm-go/mmm/internal/version"
	"github.com/mmm-go/mmm/internal/workload"
)

// Version is the library's build stamp, reported by every node on
// GET /api/version and checked by the cluster router's preflight:
// members whose version or storage policy differs from the cluster's
// are refused, because mixed policies silently break byte-identical
// recovery.
const Version = version.Version

// Cluster layer (see internal/cluster and docs/ARCHITECTURE.md
// "Cluster"): consistent-hash placement of sets over replicated
// mmserve nodes behind a stateless router that speaks the same HTTP
// dialect as a single node.
type (
	// ClusterRouterConfig tunes a router: replication factor R, write
	// quorum W, virtual nodes, request limits, mixed-version policy.
	ClusterRouterConfig = cluster.RouterConfig
	// ClusterMember is one mmserve node in a cluster: a stable name
	// (the ring identity) and a base URL.
	ClusterMember = cluster.Member
	// ClusterRebalanceReport sums what a rebalance moved — and, via
	// ChunkCacheHits vs BytesFetched, proves it moved only missing
	// chunks.
	ClusterRebalanceReport = cluster.RebalanceReport
)

// NewClusterRouter builds a stateless router over an empty membership
// table; register members with AddMember and run CheckMembers before
// serving. cmd/mmrouter is the ready-made binary around it.
var NewClusterRouter = cluster.NewRouter

// Core management types.
type (
	// Approach is a multi-model management strategy: Save a set of
	// models, Recover it later by its set ID.
	Approach = core.Approach
	// ModelSet is an in-memory set of models sharing one architecture.
	ModelSet = core.ModelSet
	// SaveRequest describes one save operation (the set, its base set,
	// and — for Provenance — what was retrained and how).
	SaveRequest = core.SaveRequest
	// SaveResult reports the new set ID and what the save cost.
	SaveResult = core.SaveResult
	// ModelUpdate records one model's retraining within a cycle.
	ModelUpdate = core.ModelUpdate
	// TrainInfo is the cycle-shared training-pipeline description.
	TrainInfo = core.TrainInfo
	// Stores bundles the document store, blob store, and dataset
	// registry an approach persists into.
	Stores = core.Stores
	// Baseline is the full-snapshot multi-model approach.
	Baseline = core.Baseline
	// Update is the delta approach.
	Update = core.Update
	// Provenance is the provenance approach.
	Provenance = core.Provenance
	// MMlibBase is the single-model reference approach.
	MMlibBase = core.MMlibBase
	// RecoveryBudget bounds provenance retraining during recovery.
	RecoveryBudget = core.RecoveryBudget
	// PartialRecoverer recovers a subset of a saved set's models — the
	// paper's post-accident access pattern. All four approaches
	// implement it.
	PartialRecoverer = core.PartialRecoverer
	// PartialRecovery is the result of a selective recovery.
	PartialRecovery = core.PartialRecovery
	// Pruner expires saved sets while keeping recovery chains intact.
	Pruner = core.Pruner
	// PruneReport summarizes a prune operation.
	PruneReport = core.PruneReport
	// Verifier checks store integrity without materializing models.
	Verifier = core.Verifier
	// Issue is one problem found by store verification.
	Issue = core.Issue
	// Lineager exposes a saved set's recovery chain.
	Lineager = core.Lineager
	// Exporter writes a set's recovery chain to a portable tar archive.
	Exporter = core.Exporter
	// SetInfo is the public view of a saved set's metadata.
	SetInfo = core.SetInfo
	// Scenario describes a deployment for approach selection.
	Scenario = core.Scenario
	// Recommendation is Advise's ranked answer.
	Recommendation = core.Recommendation
	// FsckOptions configures a store-wide integrity check.
	FsckOptions = core.FsckOptions
	// FsckReport is the result of Fsck: committed sets seen, bytes
	// checksummed, and every issue found.
	FsckReport = core.FsckReport
	// FsckIssue is one problem found by Fsck.
	FsckIssue = core.FsckIssue
	// DuReport is the result of a storage-accounting scan: logical
	// versus physical bytes per set and store-wide, plus the dedup
	// ratio.
	DuReport = core.DuReport
	// DuSet is one committed set's storage occupancy within a DuReport.
	DuSet = core.DuSet
	// GCReport summarizes a dedup chunk garbage-collection pass.
	GCReport = core.GCReport
)

// Model and training types.
type (
	// Architecture is a model's computational structure.
	Architecture = nn.Architecture
	// Model is an instantiated architecture with parameters.
	Model = nn.Model
	// TrainConfig fully describes one deterministic training run.
	TrainConfig = nn.TrainConfig
	// TrainingData is the sample view the trainer consumes.
	TrainingData = nn.Data
	// Tensor is a dense float32 tensor — model inputs, outputs, and
	// parameters.
	Tensor = tensor.Tensor
)

// NewTensor returns a tensor of the given shape backed by a copy of
// data (e.g. NewTensor([]float32{i, t, q, soc}, 4) as an FFNN input).
var NewTensor = tensor.FromSlice

// Dataset types.
type (
	// DatasetSpec deterministically describes one generated dataset.
	DatasetSpec = dataset.Spec
	// Dataset is materialized training data.
	Dataset = dataset.Dataset
	// DatasetRegistry is the external training-data store Provenance
	// references into.
	DatasetRegistry = dataset.Registry
)

// Workload types.
type (
	// WorkloadConfig parameterizes the paper's U1/U3 fleet scenario.
	WorkloadConfig = workload.Config
	// Fleet is a running scenario.
	Fleet = workload.Fleet
)

// Approach constructors.
var (
	NewBaseline   = core.NewBaseline
	NewUpdate     = core.NewUpdate
	NewProvenance = core.NewProvenance
	NewMMlibBase  = core.NewMMlibBase
)

// Option configures an approach at construction time.
type Option = core.Option

// WithConcurrency sets how many workers an approach uses for the
// per-model portions of saves and recoveries. The default is
// runtime.GOMAXPROCS(0); 1 forces serial execution. Outputs are
// byte-identical at every setting.
var WithConcurrency = core.WithConcurrency

// MetricsRegistry holds runtime metrics: counters, gauges, and
// histograms, renderable as Prometheus text or a human summary.
type MetricsRegistry = obs.Registry

// DefaultMetrics is the process-wide metrics registry. Approaches and
// instrumented stores record into it unless redirected with
// WithMetrics, and the management server's GET /metrics renders it.
var DefaultMetrics = obs.Default

// NewMetricsRegistry returns an empty, isolated metrics registry.
var NewMetricsRegistry = obs.New

// WithMetrics directs an approach's operation metrics (TTS/TTR
// histograms, error and integrity counters) into a specific registry
// instead of DefaultMetrics.
var WithMetrics = core.WithMetrics

// WithDedup routes every blob the approach writes through the store's
// content-addressed deduplicating chunk layer: identical chunks are
// stored once and shared across sets and approaches, with recovered
// parameters bit-identical to a plain save. SaveResult.BytesWritten
// then reports physical bytes (new chunks plus the recipe), which is
// how dedup savings become visible per save.
var WithDedup = core.WithDedup

// WithCodec selects, by registered ID, the compression codec an
// approach encodes its blobs with: Update diff blobs directly, and —
// under WithDedup — every blob's CAS chunk bodies, fanned out across
// the WithConcurrency worker pool. The codec ID is persisted alongside
// the data and every encoded artifact is self-describing, so stores
// remain readable regardless of what codec later writers configure.
// Built-in IDs: CodecNone, CodecZlib, CodecTLZ.
var WithCodec = core.WithCodec

// WithChunkCache attaches an in-memory serving-tier cache of at most
// the given bytes to the approach's blob store: decoded chunk bodies
// (admission weighted by how many sets share each chunk), parsed CAS
// recipes, and per-set chunk indexes. Repeated recoveries of warm sets
// then skip store round trips and codec decode work entirely. The
// cache lives on the store — approaches sharing a store share it, the
// largest requested budget wins — and recovered bytes are identical
// with or without it.
var WithChunkCache = core.WithChunkCache

// Codec is a pluggable compression codec; implement it and register
// with RegisterCodec to store blobs in a custom encoding.
type Codec = codec.Codec

// RegisterCodec adds a codec to the process-wide registry under its
// ID() and Wire() identifiers. Register at init time, before any store
// writes; both identifiers are persisted on disk and must never be
// reused for a different encoding.
var RegisterCodec = codec.Register

// Built-in codec IDs for WithCodec.
const (
	// CodecNone stores blobs raw (the default).
	CodecNone = codec.NoneID
	// CodecZlib is DEFLATE via compress/zlib — best ratio, slowest.
	CodecZlib = codec.ZlibID
	// CodecTLZ is the tensor-tuned LZ codec: a byte-plane/XOR-delta
	// pre-transform over float32 data followed by a fast LZ77 pass.
	CodecTLZ = codec.TLZID
)

// CodecIDs lists every registered codec ID, sorted.
var CodecIDs = codec.IDs

// Sentinel errors, testable with errors.Is across every layer
// (including the HTTP client, which maps server responses back onto
// them).
var (
	// ErrSetNotFound reports a recover/lineage request for an unknown
	// set ID.
	ErrSetNotFound = core.ErrSetNotFound
	// ErrCorruptBlob reports a stored artifact that fails structural or
	// hash validation during recovery.
	ErrCorruptBlob = core.ErrCorruptBlob
	// ErrBudgetExceeded reports a request that exceeds a configured
	// size or compute budget.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrChecksumMismatch reports a stored blob whose bytes no longer
	// match the checksum recorded when it was written — bit rot or
	// external modification, as opposed to the structural damage
	// ErrCorruptBlob reports.
	ErrChecksumMismatch = core.ErrChecksumMismatch
	// ErrBaseMismatch reports a derived save whose set is structurally
	// incompatible with its declared base (different architecture,
	// parameter count, or model count).
	ErrBaseMismatch = core.ErrBaseMismatch
)

// Fsck checks the whole store across every approach's namespace:
// verifies each blob against its recorded checksum, each committed set
// against its referenced artifacts, and reports crash debris (orphaned
// blobs and documents invisible to reads). With FsckOptions.Repair it
// additionally deletes the orphans; damaged committed data is only ever
// reported, never deleted.
var Fsck = core.Fsck

// Du scans the managed blob namespaces and reports logical versus
// physical occupancy per set and store-wide — the deduplication and
// compression savings ledger. Each set row also names the codec it was
// saved with.
var Du = core.Du

// GCStore deletes unreferenced deduplicated chunks from the store's
// CAS layer; pass DefaultMetrics (or nil) as the registry.
var GCStore = core.GCStore

// NewModelSet builds n freshly initialized models of arch, seeded
// reproducibly.
var NewModelSet = core.NewModelSet

// NewMemStores returns in-memory stores for tests and quickstarts.
var NewMemStores = core.NewMemStores

// Advise recommends a management approach for a scenario.
var Advise = core.Advise

// ImportArchive restores an exported recovery-chain archive into
// stores.
var ImportArchive = core.ImportArchive

// Paper architectures.
var (
	// FFNN48 is the 4,993-parameter battery-cell model.
	FFNN48 = nn.FFNN48
	// FFNN69 is the 10,075-parameter battery-cell model.
	FFNN69 = nn.FFNN69
	// CIFARNet is the 6,882-parameter image classifier.
	CIFARNet = nn.CIFARNet
	// FFNN builds a custom fully connected architecture.
	FFNN = nn.FFNN
	// ArchitectureByName resolves one of the paper architectures.
	ArchitectureByName = nn.ByName
)

// NewModel instantiates an architecture with seeded parameters.
var NewModel = nn.NewModel

// Train runs deterministic mini-batch SGD (bit-reproducible given
// equal inputs — the property provenance recovery relies on).
var Train = nn.Train

// Evaluate returns a model's mean loss over data.
var Evaluate = nn.Evaluate

// SaveModel writes one model as a self-contained deployable file
// (architecture + parameters); LoadModel reads it back.
var (
	SaveModel = nn.SaveModel
	LoadModel = nn.LoadModel
)

// GenerateDataset materializes the dataset described by spec.
var GenerateDataset = dataset.Generate

// NewDatasetRegistry returns an in-memory dataset registry.
var NewDatasetRegistry = dataset.NewRegistry

// OpenDatasetRegistry returns a registry persisted under dir.
var OpenDatasetRegistry = dataset.OpenRegistry

// Workload constructors.
var (
	// NewFleet builds the U1 state of a scenario.
	NewFleet = workload.New
	// DefaultWorkload is the paper's default battery scenario.
	DefaultWorkload = workload.DefaultConfig
	// CIFARWorkload is the paper's image-classification scenario.
	CIFARWorkload = workload.CIFARConfig
)

// Remote management service (see cmd/mmserve).
type (
	// ManagementServer is an http.Handler exposing the four approaches
	// over REST; parameters travel as raw binary multipart parts.
	ManagementServer = server.Server
	// ManagementClient talks to a ManagementServer: Save, Recover,
	// RecoverModels, Verify, Prune, PutDataset.
	ManagementClient = server.Client
)

// NewManagementServer builds an HTTP management service over stores.
var NewManagementServer = server.New

// Resilience layer (see internal/server and docs/ARCHITECTURE.md).
type (
	// ManagementServerConfig tunes per-request limits: handling
	// deadline, body size cap, and the Retry-After hint sent while
	// draining.
	ManagementServerConfig = server.Config
	// ClientRetryPolicy configures the management client's jittered
	// exponential backoff.
	ClientRetryPolicy = server.RetryPolicy
	// ClientBreaker is the client's consecutive-failure circuit
	// breaker.
	ClientBreaker = server.Breaker
)

var (
	// NewManagementServerWithConfig builds a management service with
	// explicit limits and a metrics registry.
	NewManagementServerWithConfig = server.NewWithConfig
	// ServeManagement runs a management server until ctx is canceled,
	// then drains gracefully (see cmd/mmserve for the full protocol).
	ServeManagement = server.ListenAndServe
	// ServeManagementListener is ServeManagement over an existing
	// listener (e.g. one wrapped by internal/netchaos).
	ServeManagementListener = server.ServeListener
	// ErrCircuitOpen reports a request refused by the client breaker.
	ErrCircuitOpen = server.ErrCircuitOpen
)

// Pull protocol: clients with a PullCache recover deduplicated sets
// chunk-wise — recipe diff against the local cache, parallel ranged
// chunk fetches with digest verification, resume after mid-chunk
// faults — and fall back to the multipart download when the server or
// set cannot serve chunks. See docs/ARCHITECTURE.md, "Transfer
// protocol".
type (
	// PullCache is the client-side content-addressed chunk cache a
	// ManagementClient diffs recoveries against.
	PullCache = server.PullCache
)

var (
	// NewPullCache wraps a blob store as a pull cache.
	NewPullCache = server.NewPullCache
	// OpenPullCache opens (creating if needed) an on-disk pull cache.
	OpenPullCache = server.OpenPullCache
)

// Self-healing: a background scrubber incrementally verifies every
// chunk, recipe, and blob checksum; corrupt bodies are moved
// to a quarantine namespace (reads fail fast, evidence preserved) and,
// when a repair peer is configured, re-fetched by digest over the pull
// protocol and restored. See docs/ARCHITECTURE.md, "Self-healing &
// scrub".
type (
	// Scrubber walks the store verifying integrity, resumable across
	// restarts via a persisted cursor.
	Scrubber = scrub.Scrubber
	// ScrubConfig tunes rate limits, batch size, repair peer, and
	// metrics registry.
	ScrubConfig = scrub.Config
	// ScrubReport summarizes one scrub pass or step.
	ScrubReport = scrub.Report
	// ScrubFinding is one integrity problem a scrub found.
	ScrubFinding = scrub.Finding
	// ChunkFetcher fetches chunk bytes by digest from a healthy peer;
	// *ManagementClient satisfies it.
	ChunkFetcher = scrub.ChunkFetcher
)

// NewScrubber builds a scrubber over a store's blobs and documents.
var NewScrubber = scrub.New

// Degraded recovery: RecoverModelsContext with WithPartialResults
// returns every model that survives and a report naming the ones that
// did not, instead of failing the whole call on the first bad blob.
type (
	// RecoverOption configures a RecoverModelsContext call.
	RecoverOption = core.RecoverOption
	// RecoveryReport summarizes a degraded recovery.
	RecoveryReport = core.RecoveryReport
	// ModelFailure names one model lost during degraded recovery.
	ModelFailure = core.ModelFailure
)

// WithPartialResults opts a recovery into degraded mode, filling
// report with the outcome.
var WithPartialResults = core.WithPartialResults

// Model-quality metrics.
var (
	// MAE is the mean absolute error of a model over data.
	MAE = nn.MAE
	// RMSE is the root-mean-square error of a model over data.
	RMSE = nn.RMSE
	// Accuracy is the argmax classification accuracy over one-hot data.
	Accuracy = nn.Accuracy
)

// StoreOptions configures OpenDirStoresWith.
type StoreOptions struct {
	// RetryAttempts wraps the blob and document backends in a retry
	// layer that re-issues transiently failing operations up to this
	// many total tries with exponential backoff. Values below 2 disable
	// retrying. Every backend operation is idempotent, so retrying is
	// always safe.
	RetryAttempts int
	// DurableSync makes every blob and document write fsync the file
	// before the atomic rename publishes it, and fsync the parent
	// directory afterwards, so commits survive power loss — the
	// difference between crash safety (always on, via temp+rename) and
	// power-failure safety. Servers should enable it; unit tests and
	// benchmarks usually skip the ~milliseconds per write.
	DurableSync bool
}

// OpenDirStores returns stores persisted under dir (blobs/, docs/, and
// datasets/ subdirectories), suitable for durable model management.
func OpenDirStores(dir string) (Stores, error) {
	return OpenDirStoresWith(dir, StoreOptions{})
}

// OpenDirStoresWith is OpenDirStores with explicit store options.
func OpenDirStoresWith(dir string, opts StoreOptions) (Stores, error) {
	openDir := backend.NewDir
	if opts.DurableSync {
		openDir = backend.NewDirSync
	}
	blobs, err := openDir(dir + "/blobs")
	if err != nil {
		return Stores{}, fmt.Errorf("mmm: opening blob store: %w", err)
	}
	docs, err := openDir(dir + "/docs")
	if err != nil {
		return Stores{}, fmt.Errorf("mmm: opening doc store: %w", err)
	}
	reg, err := dataset.OpenRegistry(dir + "/datasets")
	if err != nil {
		return Stores{}, fmt.Errorf("mmm: opening dataset registry: %w", err)
	}
	// Instrumented sits inside Retry so every physical attempt shows up
	// in the op counters, and retries in their own counter.
	var blobBE, docBE backend.Backend = backend.Instrument(blobs, nil, "blobs"),
		backend.Instrument(docs, nil, "docs")
	if opts.RetryAttempts > 1 {
		blobBE = &backend.Retry{Inner: blobBE, Attempts: opts.RetryAttempts,
			OnRetry: backend.RetryCounter(nil, "blobs").Inc}
		docBE = &backend.Retry{Inner: docBE, Attempts: opts.RetryAttempts,
			OnRetry: backend.RetryCounter(nil, "docs").Inc}
	}
	return Stores{
		Docs:     docstore.New(docBE, latency.CostModel{}, nil),
		Blobs:    blobstore.New(blobBE, latency.CostModel{}, nil),
		Datasets: reg,
	}, nil
}
