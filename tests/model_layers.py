"""Build a model, or a gradient, from per-layer weight and bias arrays."""

import numpy as np

from sarcnet.network import MlpModel


def from_layers(config, weights, biases) -> MlpModel:
    """The MlpModel whose per-layer views hold copies of these arrays."""
    return MlpModel(config, np.concatenate(
        [a.ravel() for w, b in zip(weights, biases) for a in (w, b)]))
