"""Estimator facade: parameter handling, fit/predict contract, masking."""

import re

import numpy as np
import pytest

import ffusion.safety.harness as harness
from ffusion import MultimodalFusionClassifier
from ffusion.autodiff import Rng
from ffusion.errors import ConfigError, DataError
from ffusion.model import MODALITIES, AvailabilityMask, EncoderBranch, ModelConfig, TrainConfig
from ffusion.scene import synthesize_sample
from ffusion.validation import ensure_labels


@pytest.fixture(scope="module")
def samples():
    root = Rng(21)
    return [
        synthesize_sample(f"{i:06d}", root.derive_seed(f"sample/{i:06d}"))
        for i in range(24)
    ]


@pytest.fixture(scope="module")
def fitted(samples):
    clf = MultimodalFusionClassifier(epochs=2, batch_size=8, seed=3,
                                     d=16, blocks=1, heads=2)
    return clf.fit(samples)


class TestParams:
    def test_get_params_roundtrip(self):
        clf = MultimodalFusionClassifier(epochs=4, p_drop=0.1)
        params = clf.get_params()
        other = MultimodalFusionClassifier(**params)
        assert other.get_params() == params

    def test_defaults_are_the_config_defaults(self):
        schedule, model = TrainConfig(), ModelConfig()
        assert MultimodalFusionClassifier().get_params() == {
            "epochs": schedule.epochs, "batch_size": schedule.batch_size,
            "learning_rate": schedule.learning_rate, "p_drop": schedule.p_drop,
            "seed": schedule.seed, "d": model.d, "blocks": model.blocks, "heads": model.heads,
        }

    def test_set_params_chains(self):
        clf = MultimodalFusionClassifier()
        assert clf.set_params(epochs=7).epochs == 7

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            MultimodalFusionClassifier().set_params(depth=3)

    def test_unfitted_predict_errors(self, samples):
        with pytest.raises(DataError):
            MultimodalFusionClassifier().predict(samples[:2])


class TestFitPredict:
    def test_classes_and_shapes(self, fitted, samples):
        assert fitted.classes_.tolist() == ["stop", "go", "turn_left", "turn_right"]
        probs = fitted.predict_proba(samples[:5])
        assert probs.shape == (5, 4)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-9
        preds = fitted.predict(samples[:5])
        assert all(p in fitted.classes_ for p in preds)

    def test_loss_curve_recorded(self, fitted):
        assert len(fitted.loss_curve_) == 2 * 3  # 2 epochs x ceil(24 / 8)

    def test_score_matches_manual_accuracy(self, fitted, samples):
        preds = fitted.predict(samples)
        labels = [s.command for s in samples]
        manual = float(np.mean([p == t for p, t in zip(preds, labels)]))
        assert fitted.score(samples) == manual
        assert fitted.score(samples, labels) == manual

    def test_masked_prediction_differs_from_probabilities(self, fitted, samples):
        full = fitted.predict_proba(samples[:4])
        masked = fitted.predict_proba(samples[:4], AvailabilityMask(camera=False))
        assert np.all(np.isfinite(masked))
        assert not np.allclose(full, masked)

    def test_mask_accepts_modality_names(self, fitted, samples):
        by_mask = fitted.predict_proba(samples[:4], AvailabilityMask(camera=False))
        by_names = fitted.predict_proba(samples[:4], {"depth", "text"})
        assert np.array_equal(by_mask, by_names)
        with pytest.raises(DataError):
            fitted.predict_proba(samples[:4], {"radar"})

    @pytest.mark.parametrize("mask", ["camera", ""])
    def test_string_mask_is_rejected_whole(self, fitted, samples, mask):
        """A string is not read letter by letter as modality names."""
        with pytest.raises(DataError, match="a mask is an AvailabilityMask or a collection "
                                            "of modality names"):
            fitted.predict_proba(samples[:4], mask)

    def test_predict_proba_encodes_each_modality_once_per_chunk(self, fitted, samples,
                                                                monkeypatch):
        """predict_proba runs the one inference loop: each modality the mask
        leaves is encoded once per predict batch."""
        monkeypatch.setattr(harness, "EVAL_CHUNK", 10)
        encoded = []
        encode = EncoderBranch.encode

        def encoding(branch, features):
            encoded.append((branch.modality, len(features)))
            return encode(branch, features)

        monkeypatch.setattr(EncoderBranch, "encode", encoding)
        for kept in (MODALITIES, ("depth", "text")):
            encoded.clear()
            fitted.predict_proba(samples, kept)
            assert sorted(encoded) == sorted((m, size) for m in kept for size in (10, 10, 4))

    def test_fit_deterministic(self, samples):
        runs = []
        for _ in range(2):
            clf = MultimodalFusionClassifier(epochs=1, batch_size=8, seed=3,
                                             d=16, blocks=1, heads=2)
            clf.fit(samples[:8])
            runs.append(clf.predict_proba(samples[8:12]))
        assert np.array_equal(runs[0], runs[1])

    def test_label_override_changes_training(self, samples):
        base = MultimodalFusionClassifier(epochs=1, batch_size=8, seed=3,
                                          d=16, blocks=1, heads=2)
        base.fit(samples[:8])
        flipped = MultimodalFusionClassifier(epochs=1, batch_size=8, seed=3,
                                             d=16, blocks=1, heads=2)
        flipped.fit(samples[:8], ["stop"] * 8)
        assert not np.array_equal(base.predict_proba(samples[8:10]),
                                  flipped.predict_proba(samples[8:10]))

    @pytest.mark.parametrize("labels, message", [
        (["stop", "stop"], "got 2 labels for 4 samples"),
        *((["stop", "go", bad, "go"], f"label 2 is {bad!r}")
          for bad in ("warp", 1.7, 2.0, True, None, [1], 4, -1, np.int64(4))),
    ], ids=["too_few", "unknown_name", "fraction", "integral_float", "bool", "none",
            "list", "too_high", "negative", "numpy_too_high"])
    def test_bad_labels_rejected(self, samples, labels, message):
        clf = MultimodalFusionClassifier(epochs=1, d=16, blocks=1, heads=2)
        with pytest.raises(DataError, match=re.escape(message)):
            clf.fit(samples[:4], labels)

    def test_labels_are_names_or_integer_ids(self):
        assert ensure_labels(["go", 0, np.int64(3)], 3).tolist() == [1, 0, 3]
