"""Fault injection, degradation harness, independence, probes, ASIL."""

import math
import sys
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ffusion.model.inputs as inputs
from ffusion.autodiff import (
    AdamState,
    ParamStore,
    Rng,
    Tape,
    Tensor,
    adam_step,
    backward,
    ops,
)
from ffusion.errors import ConfigError, DataError, FaultError, FusionError, GraphError
from ffusion.jsonfile import from_plain, to_plain
from ffusion.model import (
    AvailabilityMask,
    EncoderBranch,
    FusionNetwork,
    ModelConfig,
    TrainConfig,
    prepare_features,
    prepare_samples,
    stack_features,
    train,
)
from ffusion.safety import (
    ASIL_LEVELS,
    FAIL_SILENT,
    ArchGraph,
    Campaign,
    Claim,
    FaultSpec,
    ProbeResult,
    Scenario,
    check_decomposition,
    default_scenarios,
    fail_operational_eval,
    inject_fault,
    inject_faults,
    load_arch_graph,
    parse_arch_graph,
    probe_modality,
    rank_sum_valid,
    render_json,
    render_text_summary,
    single_modality_probe,
    snr_enrichment_eval,
    verify_independence,
)
from ffusion.safety import harness, probe
from ffusion.safety.asil import ASIL_RANK
from ffusion.safety.faults import _VALID
from ffusion.safety.harness import EVAL_CHUNK
from ffusion.safety.probe import PROBE_BATCH, PROBE_EPOCHS, PROBE_LR, pooled_embeddings
from ffusion.scene import DEFAULT_INTRINSICS, synthesize_sample
from ffusion.scene.commands import COMMANDS

SMALL = ModelConfig(d=16, blocks=1, heads=2, patch=8, text_len=8)


@pytest.fixture(scope="module")
def samples():
    root = Rng(31)
    return [
        synthesize_sample(f"{i:06d}", root.derive_seed(f"sample/{i:06d}"))
        for i in range(20)
    ]


@pytest.fixture(scope="module")
def network(samples):
    net = FusionNetwork(config=SMALL, seed=3)
    train(net, samples[:12], TrainConfig(epochs=1, batch_size=4, seed=5))
    return net


def read_fault(raw):
    """Read one fault entry the way a config scenario does."""
    return from_plain(FaultSpec, raw, "fault", FaultError)


class TestFaultSpec:
    def test_unknown_kind_and_modality(self):
        with pytest.raises(FaultError):
            FaultSpec("camera", "meteor")
        with pytest.raises(FaultError):
            FaultSpec("radar", "blackout")

    def test_invalid_combinations(self):
        with pytest.raises(FaultError):
            FaultSpec("text", "miscalibration_shift", 2.0)
        with pytest.raises(FaultError):
            FaultSpec("text", "gaussian_noise", 0.5)
        with pytest.raises(FaultError):
            FaultSpec("lidar", "stuck_at", 1.0)

    def test_magnitude_bounds(self):
        with pytest.raises(FaultError):
            FaultSpec("camera", "gaussian_noise", -0.1)
        with pytest.raises(FaultError):
            FaultSpec("lidar", "partial_dropout", 1.5)
        with pytest.raises(FaultError):
            FaultSpec("camera", "gaussian_noise", float("nan"))

    def test_dict_roundtrip(self):
        spec = FaultSpec("lidar", "partial_dropout", 0.25, seed=9)
        assert read_fault(to_plain(spec)) == spec
        with pytest.raises(FaultError):
            read_fault({"modality": "camera", "kind": "blackout", "strength": 1})

    @pytest.mark.parametrize("fields", [
        {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "3"},
        {"magnitude": "x"}, {"magnitude": True}, {"magnitude": None},
    ], ids=["seed_negative", "seed_float", "seed_bool", "seed_str",
            "magnitude_str", "magnitude_bool", "magnitude_null"])
    def test_seed_and_magnitude_types(self, fields):
        with pytest.raises(FaultError):
            read_fault({"modality": "camera", "kind": "gaussian_noise", **fields})

    def test_integer_magnitude_is_stored_as_float(self):
        spec = read_fault({"modality": "lidar", "kind": "miscalibration_shift",
                           "magnitude": 2, "seed": 4})
        assert to_plain(spec) == {"modality": "lidar", "kind": "miscalibration_shift",
                                  "magnitude": 2.0, "seed": 4}
        assert isinstance(spec.magnitude, float)


class TestInjection:
    def test_blackout_flags_failed_health(self, samples):
        for modality, field in (("camera", "camera"), ("lidar", "depth"),
                                ("text", "text")):
            hit = inject_fault(samples[0], FaultSpec(modality, "blackout"))
            features = prepare_features(hit, ModelConfig())
            assert features.health[field][0].status == "failed"
            others = [m for m in ("camera", "depth", "text") if m != field]
            assert all(features.health[m][0].status == "nominal" for m in others)

    def test_stuck_at_constant_fails_health(self, samples):
        hit = inject_fault(samples[0], FaultSpec("camera", "stuck_at", 0.5))
        assert np.all(hit.rgb == 0.5)
        features = prepare_features(hit, ModelConfig())
        assert features.health["camera"][0].status == "failed"

    def test_zero_sigma_noise_is_identity(self, samples):
        assert inject_fault(samples[0], FaultSpec("camera", "gaussian_noise", 0.0)) is samples[0]

    def test_noise_deterministic_per_seed(self, samples):
        spec = FaultSpec("camera", "gaussian_noise", 0.3, seed=4)
        a = inject_fault(samples[0], spec)
        b = inject_fault(samples[0], spec)
        c = inject_fault(samples[0], FaultSpec("camera", "gaussian_noise", 0.3, seed=5))
        assert np.array_equal(a.rgb, b.rgb)
        assert not np.array_equal(a.rgb, c.rgb)
        assert samples[0].rgb is not a.rgb

    def test_noise_differs_across_samples(self, samples):
        spec = FaultSpec("camera", "gaussian_noise", 0.3, seed=4)
        a = inject_fault(samples[0], spec)
        b = inject_fault(samples[1], spec)
        assert not np.array_equal(a.rgb - samples[0].rgb, b.rgb - samples[1].rgb)

    def test_partial_dropout_exact_count(self, samples):
        cloud = samples[0].cloud
        hit = inject_fault(samples[0], FaultSpec("lidar", "partial_dropout", 0.5, 3))
        assert len(hit.cloud) == len(cloud) - round(0.5 * len(cloud))
        none = inject_fault(samples[0], FaultSpec("lidar", "partial_dropout", 0.0))
        assert none is samples[0]

    def test_partial_dropout_preserves_order(self, samples):
        hit = inject_fault(samples[0], FaultSpec("lidar", "partial_dropout", 0.3, 3))
        original = samples[0].cloud.points.tolist()
        positions = [original.index(p) for p in hit.cloud.points.tolist()]
        assert positions == sorted(positions)

    def test_miscalibration_moves_the_cloud(self, samples):
        """Each point moves 2 pixels right and down at its own depth; only
        the depth inputs change."""
        hit = inject_fault(samples[0], FaultSpec("lidar", "miscalibration_shift", 2.0))
        points, moved = samples[0].cloud.points, hit.cloud.points
        z = points[:, 2]
        assert np.array_equal(moved[:, 2], z)
        assert np.array_equal(moved[:, 0], points[:, 0] + 2.0 * z / DEFAULT_INTRINSICS.fx)
        assert np.array_equal(moved[:, 1], points[:, 1] + 2.0 * z / DEFAULT_INTRINSICS.fy)
        straight = prepare_features(samples[0], ModelConfig())
        shifted = prepare_features(hit, ModelConfig())
        assert not np.array_equal(straight.depth, shifted.depth)
        assert np.array_equal(straight.camera, shifted.camera)
        assert np.array_equal(straight.text, shifted.text)


FAULT_PAIRS = [(m, k) for k, modalities in _VALID.items() for m in modalities]


class TestInjectionProperties:
    @given(pair=st.sampled_from(FAULT_PAIRS), index=st.integers(0, 19),
           fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**63))
    def test_injection_contract(self, samples, pair, index, fraction, seed):
        modality, kind = pair
        magnitude = fraction if kind == "partial_dropout" else 4.0 * fraction
        spec = FaultSpec(modality, kind, magnitude, seed)
        sample = samples[index]
        rgb, points = sample.rgb.copy(), sample.cloud.points.copy()
        first, second = inject_fault(sample, spec), inject_fault(sample, spec)
        assert np.array_equal(first.rgb, second.rgb)
        assert np.array_equal(first.cloud.points, second.cloud.points)
        assert first.text == second.text
        assert np.array_equal(sample.rgb, rgb) and np.array_equal(sample.cloud.points, points)
        assert first.rgb.shape == rgb.shape and first.rgb.dtype == np.float64
        n = len(points)
        kept = n - round(magnitude * n) if kind == "partial_dropout" else n
        assert first.cloud.points.shape == (kept, 3)
        assert first.cloud.points.dtype == np.float64

    @given(index=st.integers(0, 19), fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**63))
    def test_partial_dropout_keeps_n_minus_round_fn(self, samples, index, fraction, seed):
        n = len(samples[index].cloud)
        hit = inject_fault(samples[index], FaultSpec("lidar", "partial_dropout", fraction, seed))
        assert hit.cloud.points.shape == (n - round(fraction * n), 3)

    @given(pair=st.sampled_from([("camera", "gaussian_noise"), ("lidar", "gaussian_noise"),
                                 ("lidar", "partial_dropout")]),
           index=st.integers(0, 19), seed=st.integers(0, 2**63))
    def test_zero_magnitude_returns_sample(self, samples, pair, index, seed):
        assert inject_fault(samples[index], FaultSpec(*pair, 0.0, seed)) is samples[index]


class TestHarness:
    def test_default_scenarios_shape(self):
        scenarios = default_scenarios()
        assert [s.name for s in scenarios] == [
            "nominal", "camera_blackout", "lidar_blackout", "text_blackout",
            "camera_noise", "lidar_dropout"]
        assert scenarios[0].faults == ()

    def test_nominal_only_retained_exactly_one(self, network, samples):
        report = fail_operational_eval(Campaign(network, samples[12:16]),
                                       [Scenario("nominal")])
        assert report.scenarios[0].retained_accuracy == 1.0
        assert report.scenarios[0].status == "ok"

    def test_single_modality_faults_never_raise(self, network, samples):
        report = fail_operational_eval(Campaign(network, samples[12:]))
        assert len(report.scenarios) == 6
        for result in report.scenarios:
            assert result.status == "ok"
            assert np.isfinite(result.metrics.command_accuracy)
            assert result.retained_accuracy is None or np.isfinite(
                result.retained_accuracy)
        blackout = report.result("camera_blackout")
        assert blackout.arbitration[0] == 0.0
        assert abs(sum(blackout.arbitration) - 1.0) < 1e-9

    def test_triple_blackout_fail_silent(self, network, samples):
        triple = Scenario("all_dark", tuple(
            FaultSpec(m, "blackout") for m in ("camera", "lidar", "text")))
        report = fail_operational_eval(Campaign(network, samples[12:16]),
                                       [Scenario("nominal"), triple])
        result = report.result("all_dark")
        assert result.status == FAIL_SILENT
        assert result.metrics is None
        assert result.error

    def test_scenario_list_validation(self, network, samples):
        with pytest.raises(ConfigError):
            fail_operational_eval(Campaign(network, samples[12:14]),
                                  [Scenario("camera_blackout")])
        with pytest.raises(ConfigError):
            fail_operational_eval(Campaign(network, samples[12:14]),
                                  [Scenario("nominal"), Scenario("nominal")])
        with pytest.raises(DataError, match="empty split"):
            fail_operational_eval(Campaign(network, []), [Scenario("nominal")])

    def test_report_deterministic(self, network, samples):
        first = fail_operational_eval(Campaign(network, samples[12:16]))
        second = fail_operational_eval(Campaign(network, samples[12:16]))
        assert render_json(to_plain(first)) == render_json(to_plain(second))

    def test_independence_skips_samples_failing_triage(self, network, samples):
        split = list(samples[12:16])
        split[1] = inject_fault(split[1], FaultSpec("lidar", "blackout"))
        report = fail_operational_eval(Campaign(network, split), [Scenario("nominal")])
        assert report.independence is not None
        assert report.independence.all_pass

    def test_independence_without_nominal_sample_is_data_error(self, network, samples):
        dark = [inject_fault(s, FaultSpec("lidar", "blackout")) for s in samples[12:14]]
        with pytest.raises(DataError, match="passes health triage"):
            fail_operational_eval(Campaign(network, dark), [Scenario("nominal")])

    def test_faulted_nominal_rejected(self):
        with pytest.raises(ConfigError, match="fault-free baseline"):
            Scenario("nominal", (FaultSpec("camera", "gaussian_noise", 0.0),))

    def test_scenario_dict_roundtrip(self):
        scenario = Scenario("noise", (FaultSpec("camera", "gaussian_noise", 0.5, 2),))
        assert from_plain(Scenario, to_plain(scenario), "scenario") == scenario


class TestEnrichment:
    def test_zero_sigma_matches_nominal(self, network, samples):
        rows = snr_enrichment_eval(Campaign(network, samples[12:16]), [0.0])
        nominal = fail_operational_eval(Campaign(network, samples[12:16]),
                                        [Scenario("nominal")])
        assert rows[0].fused_accuracy == nominal.nominal.command_accuracy

    def test_one_row_per_sigma(self, network, samples):
        rows = snr_enrichment_eval(Campaign(network, samples[12:15]), [0.0, 0.25, 0.5])
        assert [r.sigma for r in rows] == [0.0, 0.25, 0.5]
        for row in rows:
            assert 0.0 <= row.fused_accuracy <= 1.0
            assert 0.0 <= row.camera_only_accuracy <= 1.0

    def test_negative_sigma_rejected(self, network, samples):
        with pytest.raises(ConfigError):
            snr_enrichment_eval(Campaign(network, samples[12:14]), [-0.1])

    def test_every_sigma_checked_before_any_runs(self, network, samples):
        campaign = Campaign(network, samples[12:14])
        with mock.patch.object(Campaign, "evaluate") as run, pytest.raises(ConfigError):
            snr_enrichment_eval(campaign, [0.25, -0.1])
        run.assert_not_called()


class TestPrepareOnce:
    """A campaign prepares and encodes each distinct per-modality input once;
    each probe split is prepared once."""

    @pytest.fixture
    def work(self, monkeypatch):
        """Counts of per-modality preparer calls, densify_stack calls, encoder
        batches and fusion-and-heads batches."""
        counts = Counter()
        for modality, preparer in list(inputs.PREPARERS.items()):
            def preparing(samples, config, modality=modality, preparer=preparer):
                counts[f"prepare {modality}"] += 1
                return preparer(samples, config)
            monkeypatch.setitem(inputs.PREPARERS, modality, preparing)
        densify = inputs.densify_stack

        def densifying(*args):
            counts["densify"] += 1
            return densify(*args)

        monkeypatch.setattr(inputs, "densify_stack", densifying)
        encode = EncoderBranch.encode

        def encoding(branch, features):
            counts[f"encode {branch.modality}"] += 1
            return encode(branch, features)

        monkeypatch.setattr(EncoderBranch, "encode", encoding)
        decode = FusionNetwork.decode

        def decoding(network, latents, effective):
            counts["decode"] += 1
            return decode(network, latents, effective)

        monkeypatch.setattr(FusionNetwork, "decode", decoding)
        return counts

    def test_fail_operational_eval(self, network, samples, work):
        # One chunk in which every sample passes triage under every default
        # scenario. Preparing each scenario alone took 6 preparer calls per
        # modality and 15 encoder batches.
        fail_operational_eval(Campaign(network, samples[12:16]), default_scenarios())
        # Camera and depth: nominal, blackout, and camera_noise's noise or
        # lidar_dropout's dropout; text: nominal and blackout. Blacked-out
        # inputs fail triage, so nothing densifies or encodes them. Each
        # scenario decodes once; the nominal row is the baseline's evaluation.
        # The independence check adds three taped forwards, each with one
        # branch masked: two more encoder batches per modality, three decodes.
        assert work == {
            "prepare camera": 3, "prepare depth": 3, "prepare text": 2,
            "densify": 2, "encode camera": 4, "encode depth": 4, "encode text": 3,
            "decode": 9,
        }

    def test_snr_enrichment_eval(self, network, samples, work):
        # eval's campaign: the default scenarios, then the default sigmas,
        # with a fault seed other than camera_noise's 0, as eval's dataset
        # seed is. Preparing each scenario and sigma alone took 27 encoder
        # batches.
        campaign = Campaign(network, samples[12:16])
        fail_operational_eval(campaign, default_scenarios())
        rows = snr_enrichment_eval(campaign, [0.0, 0.25, 0.5], seed=1)
        assert [row.sigma for row in rows] == [0.0, 0.25, 0.5]
        # Sigma 0 is the nominal input; sigmas 0.25 and 0.5 add one camera
        # and one depth input each, and text stays nominal. Sigma 0's fused
        # row is the nominal evaluation, so only its camera-only row decodes.
        # The independence check's three taped forwards add two encoder
        # batches per modality and three decodes.
        assert work == {
            "prepare camera": 5, "prepare depth": 5, "prepare text": 2,
            "densify": 4, "encode camera": 6, "encode depth": 6, "encode text": 3,
            "decode": 14,
        }

    def test_single_modality_probe(self, network, samples, work):
        # One campaign per split: each modality of each split is prepared
        # once and encoded in one batch.
        train_s, val_s = samples[:6], samples[6:9]
        single_modality_probe(network, train_s, val_s)
        assert work == {
            "prepare camera": 2, "prepare depth": 2, "prepare text": 2,
            "densify": 2, "encode camera": 2, "encode depth": 2, "encode text": 2,
        }

    def test_latents_encode_each_input_once(self, network, samples, work):
        campaign = Campaign(network, samples[12:16])
        camera = campaign.latents(modalities=("camera",))["camera"]
        assert campaign.latents()["camera"] is camera
        campaign.latents()
        assert list(campaign.predict())
        assert work == {
            "prepare camera": 1, "prepare depth": 1, "prepare text": 1, "densify": 1,
            "encode camera": 1, "encode depth": 1, "encode text": 1, "decode": 1,
        }

    def test_inference_gathers_no_feature_rows(self, network, samples, monkeypatch):
        """evaluate and predict read token rows and labels, never a stack of
        feature rows."""
        def refuse(*args):
            raise AssertionError("stack_features called")

        original = inputs.stack_features
        for module in list(sys.modules.values()):
            if getattr(module, "stack_features", None) is original:
                monkeypatch.setattr(module, "stack_features", refuse)
        assert harness.stack_features is refuse
        campaign = Campaign(network, samples[12:16])
        campaign.evaluate()
        campaign.evaluate((FaultSpec("camera", "blackout"),), scenario="camera_blackout")
        mask = AvailabilityMask(camera=True, depth=False, text=False)
        assert sorted(i for rows, _ in campaign.predict(mask=mask) for i in rows) == [0, 1, 2, 3]


CAMPAIGN_FAULTS = (
    FaultSpec("camera", "blackout"),
    FaultSpec("camera", "gaussian_noise", 0.25, 0),
    FaultSpec("camera", "gaussian_noise", 0.0, 2),
    FaultSpec("camera", "stuck_at", 0.5),
    FaultSpec("lidar", "blackout"),
    FaultSpec("lidar", "gaussian_noise", 0.5, 1),
    FaultSpec("lidar", "partial_dropout", 0.5, 1),
    FaultSpec("lidar", "miscalibration_shift", 2.0),
    FaultSpec("text", "blackout"),
)
ALL_DARK = Scenario("all_dark", tuple(FaultSpec(m, "blackout")
                                      for m in ("camera", "lidar", "text")))
NOISE_THEN_DARK = (FaultSpec("camera", "gaussian_noise", 0.25, 0),
                   FaultSpec("camera", "blackout"))


@st.composite
def campaign_cases(draw):
    """(scenarios, modality on which one sample fails nominal triage or None,
    sigmas, enrichment fault seed)."""
    fault_lists = draw(st.lists(st.lists(st.sampled_from(CAMPAIGN_FAULTS), max_size=3),
                                max_size=4))
    scenarios = [Scenario("nominal")] + [
        Scenario(f"s{i}", tuple(faults)) for i, faults in enumerate(fault_lists)]
    if draw(st.booleans()):
        scenarios.append(ALL_DARK)
    return (draw(st.permutations(scenarios)),
            draw(st.sampled_from([None, "camera", "lidar", "text"])),
            draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5]), max_size=3, unique=True)),
            draw(st.integers(0, 1)))


class TestCampaign:
    @given(case=campaign_cases())
    @example(case=([Scenario("nominal"), Scenario("noise_then_dark", NOISE_THEN_DARK),
                    Scenario("dark_then_noise", NOISE_THEN_DARK[::-1]), ALL_DARK],
                   "lidar", [0.0, 0.25], 0))
    @example(case=([Scenario("nominal")], "camera", [0.0], 0))
    def test_matches_preparing_every_scenario_alone(self, network, samples, case):
        """Shared per-modality inputs give exactly what preparing and
        encoding each scenario and noise level alone gives: a fresh campaign
        on the split with the faults already applied."""
        scenarios, broken, sigmas, seed = case
        split = list(samples[12:16])
        if broken is not None:
            split[1] = inject_fault(split[1], FaultSpec(broken, "blackout"))
        campaign = Campaign(network, split)
        report = fail_operational_eval(campaign, scenarios)
        rows = snr_enrichment_eval(campaign, sigmas, seed)

        def alone(faulted, mask=None, scenario="nominal"):
            """The faulted split's own evaluation; None when a sample has no
            modality left."""
            try:
                return Campaign(network, faulted).evaluate(mask=mask, scenario=scenario)
            except FusionError:
                return None

        for scenario, result in zip(scenarios, report.scenarios):
            assert result.name == scenario.name
            reference = alone(scenario.apply(split), scenario=scenario.name)
            if reference is None:
                assert result.status == FAIL_SILENT and result.metrics is None
                continue
            metrics, arbitration = reference
            assert result.status == "ok"
            assert result.metrics == metrics
            assert result.arbitration == [float(v) for v in arbitration]
        camera_only = AvailabilityMask(camera=True, depth=False, text=False)
        for sigma, row in zip(sigmas, rows):
            faults = (FaultSpec("camera", "gaussian_noise", sigma, seed),
                      FaultSpec("lidar", "gaussian_noise", sigma, seed))
            noisy = [inject_faults(s, faults) for s in split]
            for column, mask in ((row.fused_accuracy, None),
                                 (row.camera_only_accuracy, camera_only)):
                reference = alone(noisy, mask)
                assert column == (None if reference is None
                                  else reference[0].command_accuracy)
        assert len(rows) == len(sigmas)


class TestIndependence:
    def test_default_architecture_passes(self, network, samples):
        batch = prepare_samples(samples[12:15], network.config)
        report = verify_independence(network, batch)
        assert report.structural_pass
        assert report.shared_parameters == []
        assert report.functional_pass == {"camera": True, "depth": True,
                                          "text": True}
        assert report.all_pass

    def test_shared_tensor_fails_structural(self, samples):
        net = FusionNetwork(config=SMALL, seed=3)
        shared = Tensor(np.zeros((2, 2)), requires_grad=True)
        net.store.register("encoder.camera.alias", shared)
        net.store.register("encoder.depth.alias", shared)
        batch = prepare_samples(samples[:2], net.config)
        report = verify_independence(net, batch)
        assert not report.structural_pass
        assert report.shared_parameters == [
            "encoder.camera.alias", "encoder.depth.alias"]
        assert not report.all_pass


@pytest.fixture(scope="module")
def probe_split():
    root = Rng(31)
    many = [
        synthesize_sample(f"{i:06d}", root.derive_seed(f"sample/{i:06d}"))
        for i in range(144)
    ]
    return many[:96], many[96:]


@pytest.fixture(scope="module")
def probe_features(probe_split):
    """A small network, 130 samples (more than two EVAL_CHUNKs) and their
    prepared features."""
    net = FusionNetwork(config=SMALL, seed=3)
    train_s, val_s = probe_split
    split = (train_s + val_s)[:130]
    return net, split, prepare_samples(split, net.config)


class TestProbes:
    def test_text_probe_reads_out_command(self, probe_split):
        train_s, val_s = probe_split
        net = FusionNetwork(seed=0)
        result = probe_modality(net, train_s, val_s, "text")
        assert result.accuracy >= 0.95
        assert not result.shuffled_labels

    def test_shuffled_labels_near_chance(self, probe_split):
        train_s, val_s = probe_split
        net = FusionNetwork(seed=0)
        result = probe_modality(net, train_s, val_s, "text",
                                shuffle_labels=True)
        assert result.shuffled_labels
        assert abs(result.accuracy - 0.25) <= 0.15

    @given(m=st.sampled_from([1, 3]), full_batches=st.integers(0, 2),
           ragged=st.integers(1, PROBE_BATCH - 1), d=st.integers(2, 8),
           seed=st.integers(0, 2**16))
    def test_stack_matches_separate_autodiff_probes(self, m, full_batches,
                                                    ragged, d, seed):
        n = full_batches * PROBE_BATCH + ragged
        gen = np.random.default_rng(seed)
        train_x = gen.normal(size=(m, n, d))
        train_y = gen.integers(0, len(COMMANDS), size=(m, n))
        val_x = gen.normal(size=(m, 9, d))
        val_y = gen.integers(0, len(COMMANDS), size=9)
        stores = []
        real_step = probe.adam_step

        def step(store, *args):
            stores.append(store)
            real_step(store, *args)

        with mock.patch.object(probe, "adam_step", step):
            accuracies = probe._train_probes(train_x, train_y, val_x, val_y, seed)
        assert len(accuracies) == m
        for i in range(m):
            weight, bias, accuracy = _autodiff_probe(
                train_x[i], train_y[i], val_x[i], val_y, seed)
            assert np.array_equal(stores[-1]["probe.weight"].data[i], weight)
            assert np.array_equal(stores[-1]["probe.bias"].data[i], bias)
            assert accuracies[i] == accuracy

    @pytest.mark.parametrize("n", [1, EVAL_CHUNK, EVAL_CHUNK + 1, 130])
    def test_pooled_embeddings_match_whole_split(self, probe_features, n):
        net, split, features = probe_features
        head = stack_features(features, range(n))
        campaign = Campaign(net, split[:n])
        for modality in ("camera", "depth", "text"):
            whole = net.branch(modality).encode(getattr(head, modality))
            assert np.array_equal(
                pooled_embeddings(campaign, modality),
                whole.tokens.data.mean(axis=-2))

    def test_pooled_embeddings_read_only_their_modality(self, probe_features,
                                                        monkeypatch):
        net, split, _ = probe_features
        campaign = Campaign(net, split)
        features = campaign.features
        monkeypatch.setattr(campaign, "features", lambda faults=(): replace(
            features(faults), depth=None, text=None))
        assert np.array_equal(
            pooled_embeddings(campaign, "camera"),
            pooled_embeddings(Campaign(net, split), "camera"))

    def test_pooled_embeddings_reject_empty_split(self, probe_features):
        net = probe_features[0]
        with pytest.raises(DataError, match="empty split"):
            pooled_embeddings(Campaign(net, []), "camera")

    def test_single_modality_probe_steps_once_in_chunks(self, probe_split,
                                                        monkeypatch):
        """One Adam step per batch for all three probes; no encode call
        sees more than EVAL_CHUNK samples."""
        train_s, val_s = probe_split
        net = FusionNetwork(config=SMALL, seed=3)
        steps, encoded = [], []
        real_step, real_encode = probe.adam_step, EncoderBranch.encode

        def step(*args):
            steps.append(args)
            real_step(*args)

        def encode(branch, features):
            encoded.append(len(features))
            return real_encode(branch, features)

        monkeypatch.setattr(probe, "adam_step", step)
        monkeypatch.setattr(EncoderBranch, "encode", encode)
        results = single_modality_probe(net, train_s, val_s)
        assert list(results) == ["camera", "depth", "text"]
        assert len(train_s) > EVAL_CHUNK
        assert len(steps) == PROBE_EPOCHS * math.ceil(len(train_s) / PROBE_BATCH)
        assert max(encoded) <= EVAL_CHUNK
        assert sum(encoded) == 3 * (len(train_s) + len(val_s))


def _autodiff_probe(train_x, train_y, val_x, val_y, seed):
    """One probe through the tape: linear, softmax, cross-entropy, backward,
    Adam; returns its weight, bias and validation accuracy."""
    rng = Rng(seed)
    store = ParamStore()
    d = train_x.shape[1]
    bound = 1.0 / np.sqrt(float(d))
    weight = store.register("probe.weight", Tensor(
        rng.derive("probe.weight").uniform(-bound, bound, size=(d, len(COMMANDS))),
        requires_grad=True))
    bias = store.register("probe.bias", Tensor(
        np.zeros(len(COMMANDS)), requires_grad=True))
    state = AdamState.for_store(store)
    n = train_x.shape[0]
    for epoch in range(PROBE_EPOCHS):
        order = rng.derive(f"order/epoch{epoch}").permutation(n)
        for start in range(0, n, PROBE_BATCH):
            batch = order[start:start + PROBE_BATCH]
            store.zero_grad()
            with Tape() as tape:
                logits = ops.linear(Tensor.constant(train_x[batch]), weight, bias)
                loss = ops.cross_entropy(ops.softmax(logits, axis=-1), train_y[batch])
            backward(tape, loss)
            adam_step(store, store.gradients(), state, PROBE_LR)
    scores = val_x @ weight.data + bias.data
    return weight.data, bias.data, float(np.mean(scores.argmax(axis=-1) == val_y))


class TestAsilRanks:
    def test_rank_mapping_bijective(self):
        assert [ASIL_RANK[level] for level in ASIL_LEVELS] == [0, 1, 2, 3, 4]

    def test_rank_sum_matches_standard_table(self):
        # The pairwise decompositions listed in ISO 26262-9, plus every
        # over-provisioned variant that dominates one of them, written as
        # an explicit membership oracle.
        table = {
            "D": [("D", "QM"), ("C", "A"), ("B", "B")],
            "C": [("C", "QM"), ("B", "A")],
            "B": [("B", "QM"), ("A", "A")],
            "A": [("A", "QM")],
            "QM": [("QM", "QM")],
        }

        def oracle(parent, p1, p2):
            hi, lo = max(p1, p2, key=ASIL_RANK.get), min(p1, p2, key=ASIL_RANK.get)
            return any(
                ASIL_RANK[hi] >= ASIL_RANK[q1] and ASIL_RANK[lo] >= ASIL_RANK[q2]
                for q1, q2 in table[parent]
            )

        for parent in ASIL_LEVELS:
            for p1 in ASIL_LEVELS:
                for p2 in ASIL_LEVELS:
                    assert rank_sum_valid(parent, (p1, p2)) == oracle(parent, p1, p2)


def graph_text():
    return """
# perception pipeline
system: D
camera_chain: C
lidar_chain: A
planner: B
watchdog: A

system -> camera_chain + lidar_chain
planner -> watchdog + lidar_chain

independent: camera_chain, lidar_chain
"""


GAP = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def arch_graph_lines(draw):
    """A valid graph as (code, comment) lines, plus what each line declares.

    Every claim's parent precedes its parts in the element order, so the
    claims never form a cycle.
    """
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True),
                          min_size=3, max_size=6, unique=True))
    elements = {name: draw(st.sampled_from(ASIL_LEVELS)) for name in names}
    claims = []
    for _ in range(draw(st.integers(0, 4))):
        first = draw(st.integers(0, len(names) - 3))
        parts = draw(st.lists(st.sampled_from(names[first + 1:]), min_size=2,
                              max_size=2, unique=True))
        claims.append(Claim(names[first], tuple(parts)))
    pairs = draw(st.lists(st.lists(st.sampled_from(names), min_size=2, max_size=2,
                                   unique=True), max_size=4))

    def g():
        return draw(GAP)

    code = ([f"{g()}{name}{g()}:{g()}{level}{g()}" for name, level in elements.items()]
            + [f"{c.parent}{g()}->{g()}{c.parts[0]}{g()}+{g()}{c.parts[1]}" for c in claims]
            + [f"independent{g()}:{g()}{a}{g()},{g()}{b}" for a, b in pairs])
    lines = []
    for text in code:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from([("", ""), ("", "# note"), (" ", "#")])))
        lines.append((text, draw(st.sampled_from(["", " # why", "#x"]))))
    independence = frozenset(frozenset(pair) for pair in pairs)
    return lines, elements, claims, independence


class TestArchGraph:
    @given(graph=arch_graph_lines())
    def test_generated_graph_parses_back(self, graph):
        lines, elements, claims, independence = graph
        parsed = parse_arch_graph("\n".join(code + comment for code, comment in lines))
        assert parsed.elements == elements
        assert parsed.claims == claims
        assert parsed.independence == independence

    @given(graph=arch_graph_lines(), data=st.data())
    def test_mutated_line_names_its_line_number(self, graph, data):
        # No line form admits these characters, wherever they land in the
        # code part of a line.
        lines = graph[0]
        index = data.draw(st.sampled_from([i for i, (code, _) in enumerate(lines)
                                           if code.strip()]))
        code, comment = lines[index]
        at = data.draw(st.integers(0, len(code)))
        mark = data.draw(st.sampled_from("!=@$%;"))
        lines = list(lines)
        lines[index] = (code[:at] + mark + code[at:], comment)
        with pytest.raises(GraphError) as info:
            parse_arch_graph("\n".join(c + tail for c, tail in lines))
        assert str(info.value).startswith(f"line {index + 1}: cannot parse")

    def test_parse_and_check(self):
        graph = parse_arch_graph(graph_text())
        verdicts = check_decomposition(graph)
        assert [v.status for v in verdicts] == ["VALID", "INVALID"]
        assert "missing independence" in verdicts[1].reason

    def test_rank_shortfall_reason(self):
        graph = parse_arch_graph(
            "p: D\na: B\nb: A\np -> a + b\nindependent: a, b\n")
        verdict = check_decomposition(graph)[0]
        assert verdict.status == "INVALID"
        assert "rank shortfall" in verdict.reason

    def test_independence_is_symmetric(self):
        graph = parse_arch_graph(
            "p: B\na: A\nb: A\np -> a + b\nindependent: b, a\n")
        assert check_decomposition(graph)[0].status == "VALID"

    def test_unknown_element_rejected(self):
        with pytest.raises(GraphError):
            parse_arch_graph("p: D\na: C\np -> a + ghost\n")
        with pytest.raises(GraphError):
            parse_arch_graph("p: D\nindependent: p, ghost\n")

    def test_degenerate_claims_rejected(self):
        with pytest.raises(GraphError):
            Claim("p", ("a", "a"))
        with pytest.raises(GraphError):
            Claim("p", ("p", "a"))

    def test_cycle_rejected(self):
        text = "a: D\nb: C\nc: A\na -> b + c\nb -> a + c\nindependent: b, c\n"
        with pytest.raises(GraphError):
            parse_arch_graph(text)

    def test_duplicate_element_rejected(self):
        with pytest.raises(GraphError):
            parse_arch_graph("a: D\na: C\n")

    def test_bad_line_reports_line_number(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_arch_graph("a: D\na => b\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "arch.txt"
        path.write_text(graph_text(), encoding="utf-8")
        graph = load_arch_graph(path)
        assert set(graph.elements) == {
            "system", "camera_chain", "lidar_chain", "planner", "watchdog"}

    def test_unknown_level_rejected(self):
        with pytest.raises(GraphError):
            ArchGraph(elements={"a": "E"})


class TestReportRendering:
    def test_json_bytes_stable(self, network, samples):
        report = fail_operational_eval(Campaign(network, samples[12:15]),
                                       [Scenario("nominal")])
        payload = {"format": "ffusion-report-v1",
                   "degradation": to_plain(report)}
        assert render_json(payload) == render_json(
            {"format": "ffusion-report-v1", "degradation": to_plain(report)})

    def test_text_summary_sections(self, network, samples):
        report = fail_operational_eval(Campaign(network, samples[12:15]))
        graph = parse_arch_graph(graph_text())
        payload = {
            "format": "ffusion-report-v1",
            "degradation": report,
            "probes": [ProbeResult(modality="text", accuracy=1.0, shuffled_labels=False)],
            "enrichment": snr_enrichment_eval(Campaign(network, samples[12:14]), [0.0]),
            "asil_verdicts": check_decomposition(graph),
            "timings": {"train": 1.5},
        }
        text = render_text_summary(payload)
        assert "nominal baseline" in text
        assert "camera_blackout" in text
        assert "encoder independence: pass" in text
        assert "single-modality probes" in text
        assert "noise enrichment" in text
        assert "decomposition claims" in text
        assert "timings" in text

    def test_nominal_only_report(self, network, samples):
        report = fail_operational_eval(Campaign(network, samples[12:14]),
                                       [Scenario("nominal")])
        payload = {"degradation": report}
        text = render_text_summary(payload)
        assert "nominal baseline" in text
