"""From-scratch feed-forward classifier on 15 inputs and 2 output classes.

Everything here is plain numpy in double precision: Glorot-uniform
initialization, ReLU hidden layers with inverted dropout, a max-shifted
softmax head, exact backpropagation of the cross-entropy loss, and Adam
updates. No autograd, no framework.

Inputs are a single 15-vector or a (B, 15) batch; one matrix code path
serves both, a single vector being a batch of one. Backward sums the
gradients over the batch.

Dropout is the inverted kind: surviving activations are scaled by
1/keep_prob at train time, so inference applies no masks and no
rescaling. Train-mode forward therefore needs a caller-supplied seeded
generator; infer-mode forward and predict are pure.

Models serialize to a versioned JSON document with float.hex() encoded
parameters, which round-trips exactly.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, TrainingDivergence

INPUT_DIM = 15
OUTPUT_DIM = 2
HIDDEN_WIDTH_RANGE = (7, 15)

MODEL_FORMAT = "sarcnet-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple
    keep_prob: float = 0.75
    seed: int = 0
    input_dim: int = INPUT_DIM
    output_dim: int = OUTPUT_DIM

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        if self.input_dim != INPUT_DIM:
            raise ValueError(f"input_dim must be {INPUT_DIM}, got {self.input_dim}")
        if self.output_dim != OUTPUT_DIM:
            raise ValueError(f"output_dim must be {OUTPUT_DIM}, got {self.output_dim}")
        if not 1 <= len(self.hidden) <= 2:
            raise ValueError(f"hidden must have 1 or 2 layers, got {len(self.hidden)}")
        lo, hi = HIDDEN_WIDTH_RANGE
        for width in self.hidden:
            if not lo <= width <= hi:
                raise ValueError(f"hidden width {width} outside {lo}..{hi}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def layer_dims(self) -> tuple:
        return (self.input_dim, *self.hidden, self.output_dim)


@dataclass(frozen=True)
class MlpModel:
    config: MlpConfig
    weights: tuple  # W_l with shape (fan_out, fan_in)
    biases: tuple  # b_l with shape (fan_out,)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class Gradients:
    weights: tuple
    biases: tuple


@dataclass(frozen=True)
class ForwardTrace:
    """Everything backward needs; every array has the rank of the input x."""
    x: np.ndarray
    zs: tuple  # pre-activations per layer
    activations: tuple  # post-activation (and post-dropout) per layer
    masks: tuple  # dropout masks per hidden layer; empty in infer mode
    p: np.ndarray  # output probabilities, (2,) or (B, 2)
    mode: str


@dataclass(frozen=True)
class AdamState:
    m_weights: tuple
    v_weights: tuple
    m_biases: tuple
    v_biases: tuple
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_model(config: MlpConfig) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    dims = config.layer_dims
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(config, tuple(weights), tuple(biases))


def init_adam_state(model: MlpModel) -> AdamState:
    return AdamState(
        m_weights=tuple(np.zeros_like(w) for w in model.weights),
        v_weights=tuple(np.zeros_like(w) for w in model.weights),
        m_biases=tuple(np.zeros_like(b) for b in model.biases),
        v_biases=tuple(np.zeros_like(b) for b in model.biases),
    )


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax: shift by the max so huge logits cannot overflow."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def dropout_mask(rng: np.random.Generator, size, keep_prob: float) -> np.ndarray:
    """Inverted-dropout mask of the given size: entries are 0 or 1/keep_prob."""
    return (rng.random(size) < keep_prob).astype(float) / keep_prob


def forward(model: MlpModel, x, mode: str = "infer",
            rng: np.random.Generator | None = None) -> ForwardTrace:
    """Run a (15,) input or a (B, 15) batch through the network.

    The trace records everything backward needs, at the rank of x. Train
    mode draws all dropout masks of the batch as one (B, sum(hidden))
    block, split by columns per layer: row by row that is the order in
    which per-example, per-layer draws would read the generator.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if mode == "train" and rng is None:
        raise ValueError("train mode requires a random generator for dropout")
    x = np.asarray(x, dtype=float)
    dim = model.config.input_dim
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"expected input shape ({dim},) or (B, {dim}), got {x.shape}")
    a = x.reshape(-1, dim)
    masks = []
    if mode == "train":
        hidden = model.config.hidden
        block = dropout_mask(rng, (a.shape[0], sum(hidden)), model.config.keep_prob)
        masks = np.split(block, np.cumsum(hidden)[:-1], axis=1)
    zs = []
    activations = []
    last = model.n_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        zs.append(z)
        if l == last:
            a = softmax(z)
        else:
            a = relu(z)
            if mode == "train":
                a = a * masks[l]
        activations.append(a)
    if x.ndim == 1:
        zs, activations, masks = ([t[0] for t in ts] for ts in (zs, activations, masks))
    return ForwardTrace(x=x, zs=tuple(zs), activations=tuple(activations),
                        masks=tuple(masks), p=activations[-1], mode=mode)


def _class_indices(p: np.ndarray, y) -> np.ndarray:
    """The classes y as row indices into p: an int for one row, B ints for B rows."""
    classes = np.asarray(y)
    if classes.shape != p.shape[:-1]:
        raise ValueError(
            f"expected one class per probability row, got shape {classes.shape} "
            f"for probabilities of shape {p.shape}")
    if not np.all((classes == 0) | (classes == 1)):
        raise ValueError(f"class must be 0 or 1, got {y}")
    return classes.astype(np.intp).reshape(-1)


def cross_entropy(p, y) -> float:
    """Negative log likelihood of the true class, clamped away from 0.

    p is one probability row with an int class, or (B, 2) rows with B
    classes; a batch's losses are summed.
    """
    p = np.asarray(p)
    rows = p.reshape(-1, p.shape[-1])
    picked = rows[np.arange(len(rows)), _class_indices(p, y)]
    return float(-np.log(np.maximum(picked, 1e-12)).sum())


def backward(model: MlpModel, trace: ForwardTrace, y) -> Gradients:
    """Exact gradients of cross_entropy(forward(x).p, y) for every parameter.

    y is an int for a (15,) trace or B ints for a (B, 15) one; the
    gradients are summed over the batch.
    """
    if len(trace.zs) != model.n_layers:
        raise ValueError("trace does not match model depth")
    classes = _class_indices(trace.p, y)
    n = model.n_layers
    delta = np.atleast_2d(trace.p).copy()
    delta[np.arange(delta.shape[0]), classes] -= 1.0
    grad_w = [None] * n
    grad_b = [None] * n
    for l in range(n - 1, -1, -1):
        a_prev = trace.x if l == 0 else trace.activations[l - 1]
        grad_w[l] = delta.T @ np.atleast_2d(a_prev)
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ model.weights[l]
            if trace.mode == "train":
                delta = delta * trace.masks[l - 1]
            delta = delta * (trace.zs[l - 1] > 0)
    return Gradients(tuple(grad_w), tuple(grad_b))


def zero_gradients(model: MlpModel) -> Gradients:
    return Gradients(
        tuple(np.zeros_like(w) for w in model.weights),
        tuple(np.zeros_like(b) for b in model.biases),
    )


def adam_step(model: MlpModel, grads: Gradients, state: AdamState,
              lr: float) -> tuple:
    """One Adam update. Returns (new model, new state); inputs are untouched."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for l, (gw, gb) in enumerate(zip(grads.weights, grads.biases), start=1):
        if not np.all(np.isfinite(gw)):
            raise TrainingDivergence(f"non-finite gradient in W{l}")
        if not np.all(np.isfinite(gb)):
            raise TrainingDivergence(f"non-finite gradient in b{l}")
    b1, b2, eps = state.beta1, state.beta2, state.eps
    t = state.t + 1
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t

    def update(param, g, m, v):
        m_new = b1 * m + (1.0 - b1) * g
        v_new = b2 * v + (1.0 - b2) * g * g
        m_hat = m_new / bc1
        v_hat = v_new / bc2
        return param - lr * m_hat / (np.sqrt(v_hat) + eps), m_new, v_new

    new_w, new_mw, new_vw = [], [], []
    for w, g, m, v in zip(model.weights, grads.weights, state.m_weights, state.v_weights):
        p, mn, vn = update(w, g, m, v)
        new_w.append(p)
        new_mw.append(mn)
        new_vw.append(vn)
    new_b, new_mb, new_vb = [], [], []
    for b, g, m, v in zip(model.biases, grads.biases, state.m_biases, state.v_biases):
        p, mn, vn = update(b, g, m, v)
        new_b.append(p)
        new_mb.append(mn)
        new_vb.append(vn)
    new_model = MlpModel(model.config, tuple(new_w), tuple(new_b))
    new_state = replace(state, m_weights=tuple(new_mw), v_weights=tuple(new_vw),
                        m_biases=tuple(new_mb), v_biases=tuple(new_vb), t=t)
    return new_model, new_state


def predicted_classes(p: np.ndarray) -> np.ndarray:
    """Class per probability row, (2,) or (B, 2). Class 1 means sarcastic.

    Ties go to class 0, the non-sarcastic default.
    """
    return (p[..., 1] > p[..., 0]).astype(int)


def predict(model: MlpModel, x) -> tuple:
    """Classify one vector: (class, confidence). Ties go to class 0."""
    p = forward(model, x, mode="infer").p
    cls = int(predicted_classes(p))
    return cls, float(p[cls])


def _array_to_hex(a: np.ndarray) -> list:
    return [float(v).hex() for v in a.ravel()]


def _hex_to_array(values, shape) -> np.ndarray:
    return np.array([float.fromhex(v) for v in values]).reshape(shape)


def save_model(path, model: MlpModel, provenance: dict | None = None) -> None:
    """Write the versioned model document; float.hex() keeps it lossless."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": {
            "input_dim": model.config.input_dim,
            "hidden": list(model.config.hidden),
            "output_dim": model.config.output_dim,
            "keep_prob": model.config.keep_prob,
            "seed": model.config.seed,
        },
        "layers": [
            {
                "shape": list(w.shape),
                "weights": _array_to_hex(w),
                "bias": _array_to_hex(b),
            }
            for w, b in zip(model.weights, model.biases)
        ],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> MlpModel:
    """Read a model document back, rejecting version or shape mismatches."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"model file is not valid UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError("not a model file (missing format marker)")
    if doc.get("version") != MODEL_VERSION:
        raise DataError(
            f"unsupported model version {doc.get('version')!r}, expected {MODEL_VERSION}")
    try:
        cfg = doc["config"]
        config = MlpConfig(hidden=tuple(cfg["hidden"]), keep_prob=cfg["keep_prob"],
                           seed=cfg["seed"])
        if cfg["input_dim"] != config.input_dim or cfg["output_dim"] != config.output_dim:
            raise DataError("model config dimensions are invalid")
        layers = doc["layers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file: {exc}") from exc
    dims = config.layer_dims
    expected_shapes = [(fan_out, fan_in) for fan_in, fan_out in zip(dims, dims[1:])]
    if len(layers) != len(expected_shapes):
        raise DataError(
            f"model has {len(layers)} layers, config implies {len(expected_shapes)}")
    weights = []
    biases = []
    for l, (layer, shape) in enumerate(zip(layers, expected_shapes), start=1):
        try:
            stored_shape = tuple(layer["shape"])
            if stored_shape != shape:
                raise DataError(
                    f"layer {l} shape {stored_shape} does not match config {shape}")
            w = _hex_to_array(layer["weights"], shape)
            b = _hex_to_array(layer["bias"], (shape[0],))
        except DataError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed layer {l}: {exc}") from exc
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise DataError(f"layer {l} contains non-finite parameters")
        weights.append(w)
        biases.append(b)
    return MlpModel(config, tuple(weights), tuple(biases))
