"""From-scratch feed-forward classifier on 15 inputs and 2 output classes.

Everything here is plain numpy in double precision: Glorot-uniform
initialization, ReLU hidden layers with inverted dropout, a max-shifted
softmax head, exact backpropagation of the cross-entropy loss, and Adam
updates. No autograd, no framework.

forward, backward and cross_entropy take a (B, 15) batch with B
classes; backward sums the gradients over the batch. predict_batch
classifies a (B, 15) batch row by row, without the trace: each row is
its own (1, 15) product, as one stacked matmul, so it gives bit for bit
the class and probability that forward does for that row alone. predict
is its one-row case, for one (15,) vector.

A model with (S, n_params) parameters is a stack of S networks of one
shape. forward takes an (S, B, 15) batch, or a (1, B, 15) batch that all
share; numpy's stacked matmul runs each member's own gemm, so each
member's bits equal those of its unstacked run.

Dropout is the inverted kind: surviving activations are scaled by
1/keep_prob at train time, so inference applies no masks and no
rescaling. forward applies dropout exactly when it is given a seeded
generator; without one, forward and predict are pure.

A model's parameters are one float64 vector laid out W1, b1, W2, b2, ...,
with writable per-layer views. A gradient, itself an MlpModel, and Adam's
moments share that layout, so an Adam step is one elementwise pass over
one vector.

Models serialize to a versioned JSON document with float.hex() encoded
parameters, which round-trips exactly.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import _write_json
from .errors import DataError, TrainingDivergence

INPUT_DIM = 15
OUTPUT_DIM = 2
HIDDEN_WIDTH_RANGE = (7, 15)

# Adam's decay rates and denominator guard, at Kingma & Ba's defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# The largest parameter magnitude a model may hold. Inputs lie in [0, 1] and
# there are at most 2 hidden layers of at most 15 units, so with every
# parameter within L every logit stays within 15L(15L*16L + L) + L, about
# 3.6e303: finite, and so is the max-shifted softmax.
PARAM_LIMIT = 1e100

MODEL_FORMAT = "sarcnet-model"
MODEL_VERSION = 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple
    keep_prob: float = 0.75
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        if not 1 <= len(self.hidden) <= 2:
            raise ValueError(f"hidden must have 1 or 2 layers, got {len(self.hidden)}")
        lo, hi = HIDDEN_WIDTH_RANGE
        for width in self.hidden:
            if not lo <= width <= hi:
                raise ValueError(f"hidden width {width} outside {lo}..{hi}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def layer_dims(self) -> tuple:
        return (INPUT_DIM, *self.hidden, OUTPUT_DIM)

    @property
    def n_params(self) -> int:
        dims = self.layer_dims
        return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(dims, dims[1:]))


def _layer_views(config: MlpConfig, flat: np.ndarray) -> tuple:
    """(weights, biases): per-layer views, keeping any stack axis, into W1, b1, W2, b2, ..."""
    dims = config.layer_dims
    lead = flat.shape[:-1]
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        end = start + fan_out * fan_in
        weights.append(flat[..., start:end].reshape(*lead, fan_out, fan_in))
        biases.append(flat[..., end:end + fan_out])
        start = end + fan_out
    return tuple(weights), tuple(biases)


@dataclass(frozen=True)
class MlpModel:
    """Parameters and per-layer views; writing into weights[l] changes params."""
    config: MlpConfig
    params: np.ndarray  # (n_params,) or a stack (S, n_params), laid out W1, b1, W2, b2, ...
    weights: tuple = field(init=False, repr=False, compare=False)  # W_l, ([S,] fan_out, fan_in)
    biases: tuple = field(init=False, repr=False, compare=False)  # b_l, ([S,] fan_out)

    def __post_init__(self):
        if self.params.ndim not in (1, 2) or self.params.shape[-1] != self.config.n_params:
            raise ValueError(f"expected {self.config.n_params} parameters, "
                             f"got shape {self.params.shape}")
        weights, biases = _layer_views(self.config, self.params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ForwardTrace:
    """Everything backward needs; every array has one row per example."""
    x: np.ndarray  # (B, 15), or (S, B, 15) for a stack
    activations: tuple  # post-activation (and post-dropout) per layer
    masks: tuple  # dropout masks per hidden layer; empty without a generator
    p: np.ndarray  # output probabilities, (B, 2)


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray  # first moment, one entry per parameter
    v: np.ndarray  # second moment
    t: int = 0


def init_model(config: MlpConfig) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    model = MlpModel(config, np.zeros(config.n_params))
    for w in model.weights:
        fan_out, fan_in = w.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return model


def init_adam_state(model: MlpModel) -> AdamState:
    return AdamState(np.zeros_like(model.params), np.zeros_like(model.params))


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax: shift by the max so huge logits cannot overflow."""
    # OUTPUT_DIM = 2 columns take their row maximum and row sum as one
    # elementwise op on the two column slices: np.max or np.sum along a
    # 2-wide last axis costs more than the rest of the softmax. The bits are
    # the same: the maximum is exact, and a sum of two is one addition.
    if z.shape[-1] == 2:
        e = np.exp(z - np.maximum(z[..., :1], z[..., 1:]))
        return e / (e[..., :1] + e[..., 1:])
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# The generator annotations are strings: evaluated when the function is
# defined, they would import numpy.random into every process that loads
# this module, predict and eval included, which never draw a random number.
def dropout_mask(rng: "np.random.Generator | list", size, keep_prob: float) -> np.ndarray:
    """Inverted-dropout mask of the given size: entries are 0 or 1/keep_prob.

    Given a list of generators, a stack of one mask per generator.
    """
    draws = (np.stack([r.random(size) for r in rng]) if isinstance(rng, list)
             else rng.random(size))
    return (draws < keep_prob) / keep_prob


def forward(model: MlpModel, x,
            rng: "np.random.Generator | list | None" = None) -> ForwardTrace:
    """Run a (B, 15) batch through the network, or an (S, B, 15) one through a stack of S.

    The trace records everything backward needs. Given a generator, it
    applies dropout, drawing all masks of the batch as one (B, sum(hidden))
    block split by columns per layer: row by row that is the order in which
    per-example, per-layer draws would read the generator. A stack takes a
    list of one generator per member, or of one whose block all share.
    """
    x = a = np.asarray(x, dtype=float)
    if x.ndim != model.params.ndim + 1 or x.shape[-1] != INPUT_DIM:
        batch = "B" if model.params.ndim == 1 else "S, B"
        raise ValueError(f"expected input shape ({batch}, {INPUT_DIM}), got {x.shape}")
    masks = []
    if rng is not None:
        hidden = model.config.hidden
        block = dropout_mask(rng, (a.shape[-2], sum(hidden)), model.config.keep_prob)
        masks = np.split(block, np.cumsum(hidden)[:-1], axis=-1)
    activations = []
    last = model.n_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ np.swapaxes(w, -1, -2) + b[..., None, :]
        if l == last:
            a = softmax(z)
        else:
            a = np.maximum(z, 0.0)
            if masks:
                a = a * masks[l]
        activations.append(a)
    return ForwardTrace(x=x, activations=tuple(activations), masks=tuple(masks),
                        p=activations[-1])


def _class_indices(p: np.ndarray, y) -> np.ndarray:
    """The B classes y of (B, 2) probability rows p, as row indices; stacks keep their axes."""
    classes = np.asarray(y)
    if p.ndim < 2 or classes.shape != p.shape[:-1]:
        raise ValueError(
            f"expected one class per probability row, got shape {classes.shape} "
            f"for probabilities of shape {p.shape}")
    if not np.all((classes == 0) | (classes == 1)):
        raise ValueError(f"class must be 0 or 1, got {y}")
    return classes.astype(np.intp)


def cross_entropy(p, y):
    """Summed -log of each (B, 2) row p's probability of its class y, clamped away from 0.

    A stack (S, B, 2) of rows gives an (S,) array of sums.
    """
    p = np.asarray(p)
    picked = np.where(_class_indices(p, y) == 1, p[..., 1], p[..., 0])
    losses = -np.log(np.maximum(picked, 1e-12)).sum(axis=-1)
    return float(losses) if p.ndim == 2 else losses


def backward(model: MlpModel, trace: ForwardTrace, y) -> MlpModel:
    """Exact gradients of cross_entropy(forward(x).p, y) for every parameter.

    y holds the B classes of the trace's batch; the gradients are summed over it.
    """
    if len(trace.activations) != model.n_layers:
        raise ValueError("trace does not match model depth")
    classes = _class_indices(trace.p, y)
    n = model.n_layers
    # p - 1 at each row's class and p - 0 elsewhere: the one-hot subtraction.
    delta = trace.p - (classes[..., None] == np.arange(OUTPUT_DIM))
    # No zero fill: the loop writes every weight and bias view, which tile the vector.
    grads = MlpModel(model.config, np.empty_like(model.params))
    for l in range(n - 1, -1, -1):
        a_prev = trace.x if l == 0 else trace.activations[l - 1]
        np.matmul(np.swapaxes(delta, -1, -2), a_prev, out=grads.weights[l])
        delta.sum(axis=-2, out=grads.biases[l])
        if l > 0:
            delta = delta @ model.weights[l]
            if trace.masks:
                delta = delta * trace.masks[l - 1]
            # max(z, 0) * mask > 0 exactly where z > 0 and the unit was kept.
            delta = delta * (trace.activations[l - 1] > 0)
    return grads


def zero_gradients(model: MlpModel) -> MlpModel:
    return MlpModel(model.config, np.zeros_like(model.params))


def _nonfinite_block(config: MlpConfig, g: np.ndarray) -> str | None:
    """The first parameter block of g, in layout order, holding a non-finite value, or None."""
    finite = np.isfinite(g)
    if finite.all():
        return None
    for l, blocks in enumerate(zip(*_layer_views(config, finite)), start=1):
        for name, ok in zip("Wb", blocks):
            if not ok.all():
                return f"{name}{l}"


def adam_step(model: MlpModel, grads: MlpModel, state: AdamState, lr) -> tuple:
    """One Adam update. Returns (new model, new state); inputs are untouched.

    A stack takes one rate for every member or an (S, 1) column of them.
    """
    if np.any(np.asarray(lr) <= 0):
        raise ValueError(f"learning rate must be positive, got {lr}")
    g = grads.params
    block = _nonfinite_block(model.config, g)
    if block is not None:
        raise TrainingDivergence(f"non-finite gradient in {block}")
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    params = model.params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return MlpModel(model.config, params), AdamState(m, v, t)


def predicted_classes(p: np.ndarray) -> np.ndarray:
    """Class per probability row, (2,) or (B, 2). Class 1 means sarcastic.

    Ties go to class 0, the non-sarcastic default.
    """
    return (p[..., 1] > p[..., 0]).astype(int)


def predict_batch(model: MlpModel, xs) -> tuple:
    """Classify a (B, 15) batch: (classes, confidences), two (B,) arrays. Ties go to class 0.

    Each row equals forward's class and probability for that row alone,
    bit for bit. forward's (B, 15) @ w.T is one gemm, whose last bits may
    differ from a lone row's; here the batch is a stack of B (1, 15) rows,
    which numpy's matmul runs as one gemv per row on the same w.T views
    (a transposed copy rounds differently), then forward's softmax.
    """
    a = np.asarray(xs, dtype=float)
    if a.ndim != 2 or a.shape[-1] != INPUT_DIM:
        raise ValueError(f"expected input shape (B, {INPUT_DIM}), got {a.shape}")
    a = a[:, None, :]
    last = model.n_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w.T + b
        if l < last:
            np.maximum(a, 0.0, out=a)
    p = softmax(a[:, 0])
    # The class's probability is the larger one; on a tie both are the same float.
    return predicted_classes(p), np.maximum(p[:, 0], p[:, 1])


def predict(model: MlpModel, x) -> tuple:
    """Classify one (15,) vector: (class, confidence), predict_batch's one-row case.

    Any other shape, a batch included, is a ValueError; predict_batch
    takes batches.
    """
    a = np.asarray(x, dtype=float)
    if a.shape != (INPUT_DIM,):
        raise ValueError(f"expected input shape ({INPUT_DIM},), got {a.shape}")
    classes, confidences = predict_batch(model, a[None])
    return int(classes[0]), float(confidences[0])


def _array_to_hex(a: np.ndarray) -> list:
    return [float(v).hex() for v in a.ravel()]


def _hex_to_array(values, shape) -> np.ndarray:
    # A string is iterable too, and float.fromhex reads "1" as 1.0.
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise TypeError("parameters must be a list of hex strings")
    return np.array([float.fromhex(v) for v in values]).reshape(shape)


def _config_from_doc(cfg) -> MlpConfig:
    """The MlpConfig a model document's config object describes."""
    hidden, keep_prob, seed = cfg["hidden"], cfg["keep_prob"], cfg["seed"]
    if not isinstance(hidden, list) or not all(_is_int(w) for w in hidden):
        raise TypeError("hidden must be a list of integers")
    if not isinstance(keep_prob, (int, float)) or isinstance(keep_prob, bool):
        raise TypeError("keep_prob must be a number")
    for key in ("input_dim", "output_dim"):
        if not _is_int(cfg[key]):
            raise TypeError(f"{key} must be an integer")
    config = MlpConfig(hidden=tuple(hidden), keep_prob=keep_prob, seed=seed)
    if cfg["input_dim"] != INPUT_DIM or cfg["output_dim"] != OUTPUT_DIM:
        raise DataError("model config dimensions are invalid")
    return config


def save_model(path, model: MlpModel, provenance: dict) -> None:
    """Write the versioned model document; float.hex() keeps it lossless."""
    _write_json(path, {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": {
            "input_dim": INPUT_DIM,
            "hidden": list(model.config.hidden),
            "output_dim": OUTPUT_DIM,
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
    }, provenance)


def load_model(path) -> MlpModel:
    """Read a model document back, rejecting version or shape mismatches.

    Content that is not a valid model document raises DataError; only a
    file that cannot be opened or read raises OSError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"model file is not valid UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, or nested too deeply
        raise DataError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError("not a model file (missing format marker)")
    if not _is_int(doc.get("version")) or doc["version"] != MODEL_VERSION:
        raise DataError(
            f"unsupported model version {doc.get('version')!r}, expected {MODEL_VERSION}")
    try:
        config = _config_from_doc(doc["config"])
        layers = doc["layers"]
        if not isinstance(layers, list):
            raise TypeError("layers must be a list")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file: {exc}") from exc
    # Filled layer by layer below; np.empty, unlike init_model, draws nothing.
    model = MlpModel(config, np.empty(config.n_params))
    if len(layers) != model.n_layers:
        raise DataError(f"model has {len(layers)} layers, config implies {model.n_layers}")
    for l, (layer, w, b) in enumerate(zip(layers, model.weights, model.biases), start=1):
        try:
            stored_shape = tuple(layer["shape"])
            if stored_shape != w.shape:
                raise DataError(
                    f"layer {l} shape {stored_shape} does not match config {w.shape}")
            w[...] = _hex_to_array(layer["weights"], w.shape)
            b[...] = _hex_to_array(layer["bias"], b.shape)
        except DataError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed layer {l}: {exc}") from exc
        if not (np.all(np.abs(w) <= PARAM_LIMIT) and np.all(np.abs(b) <= PARAM_LIMIT)):
            raise DataError(f"layer {l} contains non-finite parameters "
                            f"or ones beyond {PARAM_LIMIT:g}")
    return model
