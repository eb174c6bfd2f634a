"""Scikit-learn style wrapper around the fusion network.

The estimator follows the usual conventions without depending on
scikit-learn itself: constructor arguments are stored verbatim,
get_params/set_params expose them, fit() creates trailing-underscore
attributes, and predict/predict_proba/score operate on lists of Sample
objects in place of feature matrices.
"""

import dataclasses
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .model import (
    AvailabilityMask,
    FusionNetwork,
    ModelConfig,
    TrainConfig,
    train,
)
from .safety import Campaign
from .scene.commands import COMMANDS
from .scene.dataset import Sample
from .validation import (
    availability_from_names,
    ensure_fitted,
    ensure_labels,
    ensure_samples,
)

_PARAM_NAMES = ("epochs", "batch_size", "learning_rate", "p_drop", "seed",
                "d", "blocks", "heads")


class MultimodalFusionClassifier:
    """Predict driving commands from camera, depth and text observations.

    Hyperparameters mirror TrainConfig and ModelConfig; `seed` controls
    both weight initialization and the training schedule, so two fits
    with equal parameters and data produce identical models.
    """

    def __init__(self, epochs: int = TrainConfig.epochs,
                 batch_size: int = TrainConfig.batch_size,
                 learning_rate: float = TrainConfig.learning_rate,
                 p_drop: float = TrainConfig.p_drop, seed: int = TrainConfig.seed,
                 d: int = ModelConfig.d, blocks: int = ModelConfig.blocks,
                 heads: int = ModelConfig.heads):
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.p_drop = p_drop
        self.seed = seed
        self.d = d
        self.blocks = blocks
        self.heads = heads
        self.network_ = None
        self.classes_ = None
        self.loss_curve_ = None

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def set_params(self, **params) -> "MultimodalFusionClassifier":
        for name, value in params.items():
            if name not in _PARAM_NAMES:
                raise ConfigError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def _configs(self):
        model = ModelConfig(d=self.d, blocks=self.blocks, heads=self.heads)
        schedule = TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                               learning_rate=self.learning_rate,
                               p_drop=self.p_drop, seed=self.seed)
        return model, schedule

    def fit(self, X: Sequence[Sample], y: Optional[Sequence] = None
            ) -> "MultimodalFusionClassifier":
        samples = ensure_samples(X)
        model, schedule = self._configs()
        network = FusionNetwork(config=model, seed=self.seed)
        if y is not None:
            ids = ensure_labels(y, len(samples))
            samples = [dataclasses.replace(s, command=COMMANDS[i])
                       for s, i in zip(samples, ids)]
        self.loss_curve_ = train(network, samples, schedule)
        self.network_ = network
        self.classes_ = np.asarray(COMMANDS)
        return self

    def predict_proba(self, X: Sequence[Sample],
                      mask: Optional[AvailabilityMask] = None) -> np.ndarray:
        """Command probabilities, (n, 4). `mask` restricts the modalities
        used for prediction: an AvailabilityMask or a collection of
        modality names to keep, e.g. {"depth", "text"}."""
        ensure_fitted(self)
        if mask is not None and not isinstance(mask, AvailabilityMask):
            mask = availability_from_names(mask)
        samples = ensure_samples(X)
        probs = np.empty((len(samples), len(COMMANDS)))
        for rows, result in Campaign(self.network_, samples).predict(mask=mask):
            probs[rows] = result.command_probs.data
        return probs

    def predict(self, X: Sequence[Sample],
                mask: Optional[AvailabilityMask] = None) -> np.ndarray:
        ids = self.predict_proba(X, mask).argmax(axis=-1)
        return self.classes_[ids]

    def score(self, X: Sequence[Sample], y: Optional[Sequence] = None,
              mask: Optional[AvailabilityMask] = None) -> float:
        samples = ensure_samples(X)
        if y is None:
            ids = ensure_labels([s.command for s in samples], len(samples))
        else:
            ids = ensure_labels(y, len(samples))
        predicted = self.predict_proba(samples, mask).argmax(axis=-1)
        return float(np.mean(predicted == ids))
