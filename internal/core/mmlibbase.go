package core

import (
	"context"
	"encoding/binary"
	"fmt"

	"github.com/mmm-go/mmm/internal/core/pool"
	"github.com/mmm-go/mmm/internal/env"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// MMlibBase reimplements the paper's reference point: MMlib's baseline
// approach, which is designed for *single*-model management. Every
// model of a set is saved individually with its own metadata document,
// environment snapshot, pipeline code, architecture definition, and a
// parameter file that embeds the parameter dictionary keys. For n
// models this issues O(n) writes to both stores and duplicates roughly
// 8 KB of model-independent data per model — exactly the behaviour the
// paper's approaches optimize away.
type MMlibBase struct {
	approachBase
}

// NewMMlibBase returns an MMlibBase approach over the given stores.
func NewMMlibBase(stores Stores, opts ...Option) *MMlibBase {
	m := &MMlibBase{}
	m.setup(mmlibLayout, m, stores, opts)
	return m
}

// modelMeta is the per-model metadata document MMlib keeps.
type modelMeta struct {
	ModelID    string `json:"model_id"`
	SetID      string `json:"set_id"`
	Index      int    `json:"index"`
	ArchName   string `json:"arch_name"`
	ParamCount int    `json:"param_count"`
	SaveFormat string `json:"save_format"`
	CodeDocID  string `json:"code_doc_id"`
	EnvDocID   string `json:"env_doc_id"`
}

// envDoc is the per-model environment snapshot, including the
// dependency freeze MMlib records.
type envDoc struct {
	Info   env.Info `json:"info"`
	Freeze []string `json:"freeze"`
}

// codeDoc is the per-model source snapshot: MMlib pickles the model
// class plus the train-service and data-loading code with every model.
type codeDoc struct {
	ModelClass   string `json:"model_class"`
	Pipeline     string `json:"pipeline"`
	TrainService string `json:"train_service"`
	DataLoader   string `json:"data_loader"`
}

// write implements approachImpl. Like Baseline, every save is a full
// snapshot; unlike Baseline, each model is persisted separately. The
// per-model bundles are independent, so they are written by the worker
// pool; the set document that makes the save visible is written last.
func (m *MMlibBase) write(ctx context.Context, op *saveOp, setID string, req SaveRequest) error {
	environment := envDoc{Info: env.Capture(), Freeze: dependencyFreeze()}
	code := codeDoc{
		ModelClass:   modelClassCode(req.Set.Arch),
		Pipeline:     PipelineCode,
		TrainService: trainServiceCode,
		DataLoader:   dataLoaderCode,
	}

	err := pool.Run(ctx, m.workers, len(req.Set.Models), func(i int) error {
		model := req.Set.Models[i]
		modelID := mmlibModelID(setID, i)

		// One architecture blob and one framed parameter blob per model:
		// the redundancy O1 targets.
		if err := saveArchBlob(op, mmlibBlobKey(setID, i, archFile), req.Set.Arch); err != nil {
			return err
		}
		if _, err := op.put(mmlibBlobKey(setID, i, paramsFile), frameParams(model), cas.Hints{}, op.dedup); err != nil {
			return fmt.Errorf("core: writing params of model %d: %w", i, err)
		}
		// Three documents per model: metadata, environment, code.
		if err := op.insertDoc(mmlibEnvCollection, modelID, environment); err != nil {
			return fmt.Errorf("core: writing env of model %d: %w", i, err)
		}
		if err := op.insertDoc(mmlibCodeCollection, modelID, code); err != nil {
			return fmt.Errorf("core: writing code of model %d: %w", i, err)
		}
		meta := modelMeta{
			ModelID: modelID, SetID: setID, Index: i,
			ArchName:   req.Set.Arch.Name,
			ParamCount: req.Set.Arch.ParamCount(),
			SaveFormat: "framed-state-dict-v1",
			CodeDocID:  modelID, EnvDocID: modelID,
		}
		if err := op.insertDoc(mmlibMetaCollection, modelID, meta); err != nil {
			return fmt.Errorf("core: writing metadata of model %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := op.insertDoc(mmlibSetCollection, setID, op.newMeta(m.Name(), setID, req)); err != nil {
		return fmt.Errorf("core: writing set document: %w", err)
	}
	return nil
}

// readFull implements approachImpl: every model is loaded
// individually — metadata, environment, and code documents plus two
// blobs per model, mirroring MMlib's full-bundle restore. These O(n)
// store round trips are why MMlib-base's TTR is an order of magnitude
// above Baseline's. The per-model restores are independent and run on
// the worker pool; model slots commit by index, and the set's shared
// architecture is deterministically taken from model 0's bundle.
func (m *MMlibBase) readFull(ctx context.Context, meta setMeta) (*ModelSet, error) {
	set := &ModelSet{Models: make([]*nn.Model, meta.NumModels)}
	archs := make([]*nn.Architecture, meta.NumModels)
	err := pool.Run(ctx, m.workers, meta.NumModels, func(i int) error {
		model, arch, err := m.recoverOne(meta.SetID, i)
		if err != nil {
			return err
		}
		archs[i] = arch
		set.Models[i] = model
		return nil
	})
	if err != nil {
		return nil, err
	}
	if meta.NumModels > 0 {
		set.Arch = archs[0]
	}
	return set, nil
}

// PullSource implements PullSourcer. MMlibBase stores one file per
// model, never a single concatenated params blob, so no set it saves is
// pullable — but a known set must still be distinguishable from a
// missing one.
func (m *MMlibBase) PullSource(setID string) (PullSource, error) {
	if _, err := loadMeta(m.stores, m.layout, setID); err != nil {
		return PullSource{}, err
	}
	return PullSource{}, fmt.Errorf("core: set %q is stored per-model: %w", setID, ErrPullUnavailable)
}

// frameParams serializes a model's parameters as a self-describing
// state dict: for every parameter, a length-prefixed dictionary key
// followed by the length-prefixed raw float bytes. The per-key framing
// is the serialization overhead Baseline eliminates by storing keys
// once in the shared architecture.
func frameParams(m *nn.Model) []byte {
	var buf []byte
	for _, p := range m.Params() {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Name)))
		buf = append(buf, p.Name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(4*p.Tensor.Len()))
		buf = p.Tensor.AppendBytes(buf)
	}
	return buf
}

// unframeParams reverses frameParams into m, verifying keys and sizes.
func unframeParams(m *nn.Model, buf []byte) error {
	off := 0
	for _, p := range m.Params() {
		if off+2 > len(buf) {
			return fmt.Errorf("core: truncated state dict at key length: %w", ErrCorruptBlob)
		}
		kl := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		if off+kl > len(buf) {
			return fmt.Errorf("core: truncated state dict at key: %w", ErrCorruptBlob)
		}
		key := string(buf[off : off+kl])
		off += kl
		if key != p.Name {
			return fmt.Errorf("core: state dict key %q, want %q: %w", key, p.Name, ErrCorruptBlob)
		}
		if off+4 > len(buf) {
			return fmt.Errorf("core: truncated state dict at value length: %w", ErrCorruptBlob)
		}
		vl := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if vl != 4*p.Tensor.Len() {
			return fmt.Errorf("core: value of %q has %d bytes, want %d: %w", key, vl, 4*p.Tensor.Len(), ErrCorruptBlob)
		}
		if off+vl > len(buf) {
			return fmt.Errorf("core: truncated state dict at value: %w", ErrCorruptBlob)
		}
		if _, err := p.Tensor.SetFromBytes(buf[off : off+vl]); err != nil {
			return err
		}
		off += vl
	}
	if off != len(buf) {
		return fmt.Errorf("core: %d trailing bytes in state dict: %w", len(buf)-off, ErrCorruptBlob)
	}
	return nil
}

// modelClassCode returns the source snapshot of the model class, as
// MMlib would pickle alongside every saved model.
func modelClassCode(arch *nn.Architecture) string {
	code := "# Model class snapshot saved with every model (MMlib behaviour).\n"
	code += fmt.Sprintf("class %s(Module):\n    def __init__(self):\n", pythonIdent(arch.Name))
	for _, l := range arch.Layers {
		switch l.Kind {
		case nn.KindLinear:
			code += fmt.Sprintf("        self.%s = Linear(%d, %d)\n", l.Name, l.In, l.Out)
		case nn.KindConv2D:
			code += fmt.Sprintf("        self.%s = Conv2d(%d, %d, kernel_size=%d, padding='same')\n",
				l.Name, l.InChannels, l.OutChannels, l.Kernel)
		case nn.KindReLU:
			code += fmt.Sprintf("        self.%s = ReLU()\n", l.Name)
		case nn.KindTanh:
			code += fmt.Sprintf("        self.%s = Tanh()\n", l.Name)
		case nn.KindMaxPool2:
			code += fmt.Sprintf("        self.%s = MaxPool2d(2)\n", l.Name)
		case nn.KindFlatten:
			code += fmt.Sprintf("        self.%s = Flatten()\n", l.Name)
		}
	}
	code += "\n    def forward(self, x):\n"
	for _, l := range arch.Layers {
		code += fmt.Sprintf("        x = self.%s(x)\n", l.Name)
	}
	code += "        return x\n"
	return code
}

func pythonIdent(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		if r == '-' || r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}

// trainServiceCode is the train-service source snapshot MMlib pickles
// with every model — part of the ~8 KB per-model overhead the paper
// measures for MMlib-base.
const trainServiceCode = `# Train service snapshot (stored per model by MMlib).
class TrainService:
    """Wraps one training run so that it can be re-executed for
    restore checks. The service owns the optimizer, the loss, the
    data loader, and the checkpointing cadence."""

    def __init__(self, model, train_loader, config):
        self.model = model
        self.train_loader = train_loader
        self.config = config
        self.optimizer = SGD(model.parameters(),
                             lr=config.learning_rate,
                             momentum=config.momentum,
                             weight_decay=config.weight_decay)
        self.loss_fn = resolve_loss(config.loss)
        self.device = config.device

    def train(self):
        self.model.to(self.device)
        self.model.train()
        for epoch in range(self.config.epochs):
            running_loss = 0.0
            for batch_idx, (inputs, targets) in enumerate(self.train_loader):
                inputs = inputs.to(self.device, non_blocking=True)
                targets = targets.to(self.device, non_blocking=True)
                self.optimizer.zero_grad()
                outputs = self.model(inputs)
                loss = self.loss_fn(outputs, targets)
                loss.backward()
                self.optimizer.step()
                running_loss += loss.item() * inputs.size(0)
            self.on_epoch_end(epoch, running_loss / len(self.train_loader.dataset))
        return self.model

    def on_epoch_end(self, epoch, epoch_loss):
        if self.config.verbose:
            log.info("epoch %d: loss %.6f", epoch, epoch_loss)
        if self.config.checkpoint_every and epoch % self.config.checkpoint_every == 0:
            self.save_checkpoint(epoch)

    def save_checkpoint(self, epoch):
        state = {
            "epoch": epoch,
            "model_state": self.model.state_dict(),
            "optimizer_state": self.optimizer.state_dict(),
        }
        persist(state, checkpoint_path(self.config.run_id, epoch))

    def validate(self, val_loader):
        self.model.eval()
        total, correct, loss_sum = 0, 0, 0.0
        with no_grad():
            for inputs, targets in val_loader:
                outputs = self.model(inputs.to(self.device))
                loss_sum += self.loss_fn(outputs, targets.to(self.device)).item()
                total += targets.size(0)
        return loss_sum / max(total, 1)
`

// dataLoaderCode is the data-loading source snapshot MMlib stores per
// model.
const dataLoaderCode = `# Data loader snapshot (stored per model by MMlib).
class CellDataset(Dataset):
    """Loads one battery cell's discharge samples: inputs are
    (current, temperature, charge, soc), target is the voltage."""

    def __init__(self, dataset_ref, normalize=True):
        self.frame = load_samples(dataset_ref)
        self.stats = fit_stats(self.frame) if normalize else None

    def __len__(self):
        return len(self.frame)

    def __getitem__(self, idx):
        row = self.frame[idx]
        x = as_tensor([row.current, row.temp_c, row.charge_ah, row.soc])
        y = as_tensor([row.voltage])
        if self.stats is not None:
            x = (x - self.stats.x_mean) / self.stats.x_std
            y = (y - self.stats.y_mean) / self.stats.y_std
        return x, y

def make_loader(dataset_ref, batch_size, seed):
    ds = CellDataset(dataset_ref)
    gen = Generator().manual_seed(seed)
    return DataLoader(ds, batch_size=batch_size, shuffle=True,
                      generator=gen, num_workers=0, drop_last=False)
`

// dependencyFreeze is the pip-freeze-style dependency dump MMlib stores
// with every model's environment. The list mirrors a PyTorch 1.7.1
// environment (the paper's framework) and is the bulk of the per-model
// environment payload.
func dependencyFreeze() []string {
	return []string{
		"absl-py==0.11.0", "argon2-cffi==20.1.0", "astunparse==1.6.3",
		"attrs==20.3.0", "backcall==0.2.0", "bleach==3.2.1",
		"cachetools==4.2.0", "certifi==2020.12.5", "cffi==1.14.4",
		"chardet==4.0.0", "cloudpickle==1.6.0", "cycler==0.10.0",
		"dataclasses==0.6", "decorator==4.4.2", "defusedxml==0.6.0",
		"dill==0.3.3", "entrypoints==0.3", "future==0.18.2",
		"google-auth==1.24.0", "google-auth-oauthlib==0.4.2",
		"google-pasta==0.2.0", "grpcio==1.34.0", "h5py==2.10.0",
		"idna==2.10", "importlib-metadata==3.3.0", "ipykernel==5.4.2",
		"ipython==7.19.0", "ipython-genutils==0.2.0", "jedi==0.18.0",
		"jinja2==2.11.2", "joblib==1.0.0", "jsonschema==3.2.0",
		"jupyter-client==6.1.7", "jupyter-core==4.7.0", "kiwisolver==1.3.1",
		"markdown==3.3.3", "markupsafe==1.1.1", "matplotlib==3.3.3",
		"mistune==0.8.4", "mmlib==0.1.0", "nbclient==0.5.1",
		"nbconvert==6.0.7", "nbformat==5.0.8", "nest-asyncio==1.4.3",
		"notebook==6.1.5", "numpy==1.19.4", "oauthlib==3.1.0",
		"opt-einsum==3.3.0", "packaging==20.8", "pandas==1.2.0",
		"pandocfilters==1.4.3", "parso==0.8.1", "pexpect==4.8.0",
		"pickleshare==0.7.5", "pillow==8.0.1", "prometheus-client==0.9.0",
		"prompt-toolkit==3.0.8", "protobuf==3.14.0", "psutil==5.8.0",
		"ptyprocess==0.7.0", "pyasn1==0.4.8", "pyasn1-modules==0.2.8",
		"pycparser==2.20", "pygments==2.7.3", "pymongo==3.11.2",
		"pyparsing==2.4.7", "pyrsistent==0.17.3", "python-dateutil==2.8.1",
		"pytz==2020.5", "pyzmq==20.0.0", "requests==2.25.1",
		"requests-oauthlib==1.3.0", "rsa==4.6", "scikit-learn==0.24.0",
		"scipy==1.5.4", "send2trash==1.5.0", "six==1.15.0",
		"tensorboard==2.4.0", "terminado==0.9.1", "testpath==0.4.4",
		"threadpoolctl==2.1.0", "torch==1.7.1", "torchvision==0.8.2",
		"tornado==6.1", "traitlets==5.0.5", "typing-extensions==3.7.4.3",
		"urllib3==1.26.2", "wcwidth==0.2.5", "webencodings==0.5.1",
		"werkzeug==1.0.1", "wheel==0.36.2", "zipp==3.4.0",
	}
}
