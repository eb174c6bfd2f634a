"""Encoders, fusion, decoders, health monitoring and the training loop."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ffusion.autodiff import (
    Rng,
    Tape,
    Tensor,
    add,
    attention,
    backward,
    gelu,
    grad_check,
    grad_check_components,
    mul,
    sum_,
)
from ffusion.errors import (
    CheckpointError,
    ConfigError,
    DataError,
    FusionError,
    ShapeError,
    TrainingError,
)
from ffusion.geometry import DepthMap
from ffusion.jsonfile import from_plain, to_plain
from ffusion.model import (
    AvailabilityMask,
    EncoderBranch,
    FusionCore,
    FusionNetwork,
    Metrics,
    ModelConfig,
    TokenSequence,
    TrainConfig,
    TransformerBlock,
    camera_health,
    depth_health,
    patchify,
    prepare_features,
    prepare_samples,
    stack_features,
    text_health,
    train,
)
from ffusion.model import inputs
from ffusion.model.layers import take_rows
from ffusion.model.vocab import BOS_ID, EOS_ID, PAD_ID, UNK_ID, VOCABULARY, WORD_IDS, encode
from ffusion.autodiff import ParamStore
from ffusion.safety import Campaign, FaultSpec, inject_fault
from ffusion.scene import synthesize_sample
from ffusion.scene.commands import SENTENCES
from ffusion.scene.dataset import Sample


def make_samples(count, seed=11):
    root = Rng(seed)
    return [
        synthesize_sample(f"{i:06d}", root.derive_seed(f"sample/{i:06d}"))
        for i in range(count)
    ]


SMALL = ModelConfig(d=16, blocks=1, heads=2, patch=8, text_len=8)


class TestVocab:
    def test_encode_sentence(self):
        ids = encode("stop ahead pedestrian", 8)
        stop, ahead, ped = (WORD_IDS[w] for w in ("stop", "ahead", "pedestrian"))
        assert ids.tolist() == [BOS_ID, stop, ahead, ped, EOS_ID, PAD_ID, PAD_ID, PAD_ID]

    def test_unknown_word_maps_to_unk(self):
        ids = encode("zebra ahead", 8)
        assert ids[1] == UNK_ID
        assert ids[2] == WORD_IDS["ahead"]

    def test_empty_text_errors(self):
        with pytest.raises(DataError):
            encode("", 8)
        with pytest.raises(DataError):
            encode("   ", 8)

    def test_too_long_errors(self):
        with pytest.raises(DataError):
            encode("go go go go go go go", 8)

    def test_ids_dense_and_bijective(self):
        assert len(VOCABULARY) == len(WORD_IDS) == 20
        assert sorted(WORD_IDS.values()) == list(range(20))
        assert all(VOCABULARY[i] == w for w, i in WORD_IDS.items())

    def test_sentence_ids_pinned(self):
        # Checkpoints hold a 20-row text embedding table and do not record
        # the vocabulary: these ids must never change.
        assert {command: encode(text, 8).tolist() for command, text in SENTENCES.items()} == {
            "stop": [2, 4, 5, 6, 3, 0, 0, 0],
            "go": [2, 7, 8, 9, 10, 3, 0, 0],
            "turn_left": [2, 11, 12, 13, 14, 3, 0, 0],
            "turn_right": [2, 11, 12, 13, 15, 3, 0, 0],
        }
        net = FusionNetwork(config=SMALL, seed=0)
        assert net.store["encoder.text.embed.table"].shape == (20, SMALL.d)


class TestPatchify:
    def test_patch_count(self):
        patches = patchify(np.zeros((8, 8, 1)), 4)
        assert patches.shape == (4, 16)

    def test_constant_image_identical_patches(self):
        patches = patchify(np.full((32, 32, 3), 0.7), 8)
        assert np.all(patches == patches[0])

    def test_flattening_order_by_hand(self):
        image = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        patches = patchify(image, 2)
        assert patches.tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_patch_blocks_are_row_major(self):
        image = np.arange(16.0).reshape(4, 4, 1)
        patches = patchify(image, 2)
        assert patches[0].tolist() == [0.0, 1.0, 4.0, 5.0]
        assert patches[1].tolist() == [2.0, 3.0, 6.0, 7.0]
        assert patches[2].tolist() == [8.0, 9.0, 12.0, 13.0]

    def test_divisibility_error(self):
        with pytest.raises(ShapeError):
            patchify(np.zeros((30, 32, 3)), 8)


def reference_block(block, x, rows=None):
    """The block as the chain of ops its one record replaces: LN, the q/k/v
    linears, attention, the out linear, add, LN, expand, gelu, contract, add.
    The reference the record must equal bit for bit."""
    attn = block.attn
    h = block.norm_attn(x)
    queries = h if rows is None else take_rows(h, rows)
    mixed, weights = attention(attn.query(queries), attn.key(h), attn.value(h), attn.heads)
    if rows is not None:
        x = take_rows(x, rows)
    x = add(x, attn.out(mixed))
    x = add(x, block.contract(gelu(block.expand(block.norm_mlp(x)))))
    return x, weights


def small_block(dim, heads, tokens=5):
    """A block with perturbed parameters, its store and an input (2, tokens, dim)."""
    store = ParamStore()
    block = TransformerBlock(store, Rng(1), "block", dim, heads)
    for path in store.paths():
        store[path].data[...] += Rng(7).derive(path).normal(store[path].shape) * 0.1
    x = Tensor(Rng(2).normal((2, tokens, dim)), requires_grad=True)
    return block, store, x


class TestBlockRecord:
    def test_row_sums_one(self):
        block = TransformerBlock(ParamStore(), Rng(1), "block", 16, 2)
        _, weights = block(Tensor.constant(Rng(2).normal((5, 16))))
        assert np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-9

    def test_single_token_weight_exactly_one(self):
        block = TransformerBlock(ParamStore(), Rng(1), "block", 16, 2)
        _, weights = block(Tensor.constant(Rng(2).normal((1, 16))))
        assert np.array_equal(weights, np.ones((2, 1, 1)))

    def test_identical_tokens_uniform_attention(self):
        block = TransformerBlock(ParamStore(), Rng(1), "block", 16, 2)
        _, weights = block(Tensor.constant(np.tile(Rng(2).normal((1, 16)), (6, 1))))
        assert np.allclose(weights, 1.0 / 6.0, atol=1e-12)

    @pytest.mark.parametrize("rows", [None, (0, 17)], ids=["all", "rows"])
    def test_equals_reference_chain(self, rows):
        # Default width, as in the model; (0, 17) are the rows the heads read.
        config = ModelConfig()
        results = []
        for call in (TransformerBlock.__call__, reference_block):
            block, store, x = small_block(config.d, config.heads, tokens=41)
            with Tape() as tape:
                out, weights = call(block, x, rows)
                loss = sum_(mul(out, Tensor.constant(Rng(3).normal(out.shape))))
            backward(tape, loss)
            grads = [x.grad] + [store[path].grad for path in store.paths()]
            results.append((out.data, weights, grads, len(tape.records)))
        (out, weights, grads, records), (ref_out, ref_weights, ref_grads, _) = results
        assert records == 3  # the block, mul and sum_
        assert np.array_equal(out, ref_out)
        assert np.array_equal(weights, ref_weights)
        assert len(grads) == len(ref_grads) == 16
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    @given(st.lists(st.floats(-1e300, 1e300), min_size=16, max_size=16))
    @example([1e300, -1e300] * 8)
    def test_gelu_gradient_finite_for_any_finite_input(self, pre):
        # Beyond |x| ~ 1e154, x * x is inf, which must never meet the zero
        # cdf (1 - cdf) of the backward. The block's pre-activation is the
        # expand bias here; x * x overflowing in the forward only saturates tanh.
        block, store, x = small_block(4, 1, tokens=3)
        store["block.mlp.expand.weight"].data[...] = 0.0
        store["block.mlp.expand.bias"].data[...] = pre
        store["block.mlp.contract.weight"].data[...] *= 1e-10
        leaf = Tensor(pre, requires_grad=True)
        with np.errstate(over="ignore"), Tape() as tape:
            out = block(x)[0]
            loss = add(sum_(mul(out, Tensor.constant(Rng(3).normal(out.shape)))),
                       sum_(gelu(leaf)))
        backward(tape, loss)
        grads = [leaf.grad, x.grad] + [store[path].grad for path in store.paths()]
        assert np.isfinite(out.data).all() and np.isfinite(loss.data)
        assert all(np.isfinite(g).all() for g in grads)

    @pytest.mark.parametrize("rows", [None, (0, 3)], ids=["all", "rows"])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_gradients_match_central_differences(self, heads, rows):
        block, store, x = small_block(8, heads)
        weight = Tensor.constant(Rng(3).normal((2, 5 if rows is None else 3, 8)))

        def loss(t):
            return sum_(mul(block(t, rows)[0], weight))

        errs = {"x": grad_check(loss, x)}
        for path in store.paths():
            errs[path] = grad_check(lambda _: loss(x), store[path])
        assert len(errs) == 16
        worst = max(errs, key=errs.get)
        assert errs[worst] < 1e-5, (worst, errs[worst])


class TestEncoders:
    def test_shape_contract(self):
        config = ModelConfig()
        store = ParamStore()
        rng = Rng(0)
        cam = EncoderBranch(store, rng, "camera", config)
        depth = EncoderBranch(store, rng, "depth", config)
        text = EncoderBranch(store, rng, "text", config)
        assert cam.encode(np.zeros((16, 192)) + 0.1).tokens.shape == (16, 64)
        assert depth.encode(np.zeros((16, 128)) + 0.1).tokens.shape == (16, 64)
        ids = encode("lane clear go straight", 8)
        assert text.encode(ids).tokens.shape == (8, 64)

    def test_batched_shapes(self):
        store = ParamStore()
        cam = EncoderBranch(store, Rng(0), "camera", SMALL)
        out = cam.encode(Rng(1).normal((3, 16, 192)))
        assert out.tokens.shape == (3, 16, 16)

    def test_parameter_paths_disjoint(self):
        net = FusionNetwork(config=SMALL, seed=0)
        prefixes = ("encoder.camera.", "encoder.depth.", "encoder.text.")
        owners = {p: [pre for pre in prefixes if p.startswith(pre)] for p in net.store.paths()}
        assert all(len(v) <= 1 for v in owners.values())
        for pre in prefixes:
            assert any(p.startswith(pre) for p in net.store.paths())

    def test_cross_branch_gradients_exactly_zero(self):
        net = FusionNetwork(config=SMALL, seed=0)
        x = Rng(1).normal((16, 192))
        net.store.zero_grad()
        with Tape() as tape:
            out = net.branch("camera").encode(x)
            loss = sum_(out.tokens)
        backward(tape, loss)
        text_paths = [p for p in net.store.paths() if p.startswith("encoder.text.")]
        assert text_paths
        assert all(net.store[p].grad is None for p in text_paths)
        assert net.store["encoder.camera.embed.weight"].grad is not None

    def test_init_deterministic_per_seed(self):
        a = FusionNetwork(config=SMALL, seed=5)
        b = FusionNetwork(config=SMALL, seed=5)
        c = FusionNetwork(config=SMALL, seed=6)
        for path in a.store.paths():
            assert np.array_equal(a.store[path].data, b.store[path].data)
        assert any(
            not np.array_equal(a.store[p].data, c.store[p].data) for p in a.store.paths()
        )

    def test_wrong_feature_shape_errors(self):
        store = ParamStore()
        cam = EncoderBranch(store, Rng(0), "camera", SMALL)
        with pytest.raises(ShapeError):
            cam.encode(np.zeros((16, 100)))

    def test_unknown_modality_errors(self):
        with pytest.raises(ConfigError):
            EncoderBranch(ParamStore(), Rng(0), "radar", SMALL)


def random_latents(config, seed=3, lead=()):
    rng = Rng(seed)
    cam = TokenSequence("camera", Tensor.constant(rng.normal(lead + (16, config.d))))
    depth = TokenSequence("depth", Tensor.constant(rng.normal(lead + (16, config.d))))
    text = TokenSequence("text", Tensor.constant(rng.normal(lead + (8, config.d))))
    return [cam, depth, text]


class TestFusion:
    def test_token_count_and_spans(self):
        # The latent holds the rows the heads read: the summary token and
        # the camera span. The spans still index the whole 41-token sequence.
        core = FusionCore(ParamStore(), Rng(0), SMALL)
        fused = core.fuse(random_latents(SMALL), AvailabilityMask())
        assert fused.tokens.shape == (17, SMALL.d)
        assert fused.spans == {"camera": (1, 17), "depth": (17, 33), "text": (33, 41)}
        assert np.all(np.isfinite(fused.tokens.data))
        blind = core.fuse(random_latents(SMALL), AvailabilityMask(camera=False))
        assert blind.tokens.shape == (1, SMALL.d)
        assert blind.spans == {"camera": (1, 1), "depth": (1, 17), "text": (17, 25)}

    @pytest.mark.parametrize("mask", [
        AvailabilityMask(camera=c, depth=d, text=t)
        for c in (True, False) for d in (True, False) for t in (True, False)
        if c or d or t
    ], ids=lambda m: "".join("cdt"[i] for i, on in enumerate((m.camera, m.depth, m.text)) if on))
    def test_read_rows_match_full_sequence(self, mask):
        # The last block computes only the read rows (and the depth or text
        # span on request). Blocks of two or more rows equal the same rows of
        # a full-sequence run bit for bit; a single row goes through numpy's
        # matrix-vector path, which may round differently.
        config = ModelConfig()
        core = FusionCore(ParamStore(), Rng(0), config)
        fused = core.fuse(random_latents(config, lead=(3,)), mask)
        full = fused.rows((0, max(stop for _, stop in fused.spans.values()))).data
        read = fused.tokens.shape[-2]
        assert read == fused.spans["camera"][1]
        if read >= 2:
            assert np.array_equal(fused.tokens.data, full[:, :read])
        else:
            assert np.allclose(fused.tokens.data, full[:, :1], rtol=1e-12, atol=1e-12)
        for m in ("camera", "depth", "text"):
            start, stop = fused.spans[m]
            if start < stop:
                assert np.array_equal(fused.span_tokens(m).data, full[:, start:stop])

    def test_masked_equals_physically_removed(self):
        core = FusionCore(ParamStore(), Rng(0), SMALL)
        latents = random_latents(SMALL)
        for drop in ("camera", "depth", "text"):
            mask = AvailabilityMask(**{m: m != drop for m in ("camera", "depth", "text")})
            masked = core.fuse(latents, mask)
            removed = core.fuse([s for s in latents if s.modality != drop], mask)
            assert np.abs(masked.summary.data - removed.summary.data).max() < 1e-9
            for m in ("camera", "depth", "text"):
                if m == drop:
                    continue
                delta = masked.span_tokens(m).data - removed.span_tokens(m).data
                assert np.abs(delta).max() < 1e-9
            assert np.abs(masked.arbitration - removed.arbitration).max() < 1e-9

    def test_only_text_available(self):
        core = FusionCore(ParamStore(), Rng(0), SMALL)
        latents = random_latents(SMALL)
        mask = AvailabilityMask(camera=False, depth=False, text=True)
        masked = core.fuse(latents, mask)
        alone = core.fuse([latents[2]], mask)
        assert np.abs(masked.summary.data - alone.summary.data).max() < 1e-9
        assert masked.arbitration[2] == 1.0
        assert masked.arbitration[0] == 0.0 and masked.arbitration[1] == 0.0

    def test_no_modality_errors(self):
        core = FusionCore(ParamStore(), Rng(0), SMALL)
        with pytest.raises(FusionError):
            core.fuse([], AvailabilityMask())
        with pytest.raises(FusionError):
            AvailabilityMask(camera=False, depth=False, text=False)

    def test_arbitration_probability_vector(self):
        core = FusionCore(ParamStore(), Rng(0), SMALL)
        fused = core.fuse(random_latents(SMALL, lead=(4,)), AvailabilityMask())
        assert fused.arbitration.shape == (4, 3)
        assert np.all(fused.arbitration >= 0.0)
        assert np.abs(fused.arbitration.sum(axis=-1) - 1.0).max() < 1e-9

    def test_symmetric_duplicate_modalities_equal_scores(self):
        # Identical tokens through identical type embeddings must earn
        # identical arbitration mass: fusion has no positional signal.
        core = FusionCore(ParamStore(), Rng(0), SMALL)
        core.type_table.data[1] = core.type_table.data[0]
        rows = Rng(9).normal((16, SMALL.d))
        cam = TokenSequence("camera", Tensor.constant(rows.copy()))
        depth = TokenSequence("depth", Tensor.constant(rows.copy()))
        fused = core.fuse([cam, depth], AvailabilityMask(text=False))
        assert abs(fused.arbitration[0] - fused.arbitration[1]) < 1e-9

    def test_gradient_isolation_through_fusion(self):
        net = FusionNetwork(config=SMALL, seed=0)
        samples = make_samples(2)
        batch = prepare_samples(samples, net.config)
        net.store.zero_grad()
        with Tape() as tape:
            result = net.forward(batch, AvailabilityMask(depth=False))
            loss = net.loss(result, batch.command_ids, batch.seg_labels)
        backward(tape, loss)
        depth_paths = [p for p in net.store.paths() if p.startswith("encoder.depth.")]
        assert depth_paths
        for path in depth_paths:
            grad = net.store[path].grad
            assert grad is None or np.all(grad == 0.0)
        cam_grads = [net.store[p].grad for p in net.store.paths()
                     if p.startswith("encoder.camera.")]
        assert any(g is not None and np.any(g != 0.0) for g in cam_grads)


class TestSegHead:
    def test_camera_unavailable_outputs_softmax_of_bias(self):
        net = FusionNetwork(config=SMALL, seed=0)
        bias = net.store["head.segmentation.bias"]
        bias.data[:] = Rng(4).normal(bias.shape)
        batch = prepare_samples(make_samples(2), net.config)
        result = net.forward(batch, AvailabilityMask(camera=False))
        logits = bias.data.reshape(2, 2, 4)
        expected = np.exp(logits - logits.max(axis=-1, keepdims=True))
        expected /= expected.sum(axis=-1, keepdims=True)
        assert result.seg_probs.shape == (2, 8, 8, 4)
        for row in range(8):
            for col in range(8):
                cell = result.seg_probs.data[:, row, col]
                assert np.abs(cell - expected[row % 2, col % 2]).max() < 1e-15


class TestHealth:
    def test_all_zero_camera_failed(self):
        health = camera_health(np.zeros((32, 32, 3)))
        assert health.status == "failed"
        assert not health.available

    def test_one_percent_nonfinite_degraded(self):
        rgb = Rng(0).uniform(size=(32, 32, 3))
        flat = rgb.reshape(-1)
        flat[: int(0.01 * flat.size)] = np.nan
        health = camera_health(rgb)
        assert health.status == "degraded"

    def test_heavy_nonfinite_failed(self):
        rgb = Rng(0).uniform(size=(32, 32, 3))
        rgb.reshape(-1)[:200] = np.inf
        assert camera_health(rgb).status == "failed"

    def test_empty_depth_failed(self):
        health = depth_health(DepthMap.empty(32, 32))
        assert health.status == "failed"

    def test_one_flat_face_depth_nominal(self):
        # Sample 000002 of dataset seed 12409: its 352 scanned points all
        # land on one box face at one depth, a clean scan, not a stuck one.
        sample = make_samples(3, seed=12409)[2]
        sparse = inputs.project_point_cloud(sample.cloud)
        assert len(np.unique(sparse.values[sparse.valid])) == 1
        assert depth_health(sparse).status == "nominal"
        features = prepare_features(sample, ModelConfig())
        assert all(h.status == "nominal" for (h,) in features.health.values())

    def test_lidar_blackout_fails_depth(self):
        sample = inject_fault(make_samples(1)[0], FaultSpec("lidar", "blackout"))
        (health,) = prepare_features(sample, ModelConfig()).health["depth"]
        assert health.status == "failed"

    def test_empty_text_failed(self):
        assert text_health("").status == "failed"
        assert text_health("   ").status == "failed"

    def test_nominal_sample_all_nominal(self):
        sample = make_samples(1)[0]
        features = prepare_features(sample, ModelConfig())
        assert all(h.status == "nominal" for (h,) in features.health.values())
        assert features.availability == (True, True, True)


class TestPrepare:
    def test_batch_equals_one_at_a_time(self, monkeypatch):
        # Depth passes triage on some samples and fails on others; a small
        # chunk makes the passing maps span several densify calls.
        samples = make_samples(9)
        samples[1] = inject_fault(samples[1], FaultSpec("lidar", "blackout"))
        samples[4] = inject_fault(samples[4], FaultSpec("lidar", "miscalibration_shift", 2.0))
        samples[5] = inject_fault(samples[5], FaultSpec("lidar", "blackout"))
        samples[7] = inject_fault(samples[7], FaultSpec("camera", "blackout"))
        net = FusionNetwork(config=SMALL, seed=0)
        monkeypatch.setattr(inputs, "DENSIFY_CHUNK", 3)
        batched = prepare_samples(samples, net.config)
        alone = [prepare_features(s, net.config) for s in samples]
        assert [p[1] for p in batched.patterns].count(False) == 2
        assert batched.size == len(alone)
        for i, want in enumerate(alone):
            got = stack_features(batched, [i])
            assert got.sample_ids == want.sample_ids
            for name in ("camera", "depth", "text", "seg_labels", "command_ids"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), (got.sample_ids, name)
            assert {m: [(h.status, h.available) for h in hs] for m, hs in got.health.items()} == \
                {m: [(h.status, h.available) for h in hs] for m, hs in want.health.items()}

    def test_empty_list(self):
        batch = prepare_samples([], SMALL)
        assert batch.size == 0 and batch.patterns == []
        assert {getattr(batch, m).shape[0] for m in ("camera", "depth", "text")} == {0}
        assert batch.command_ids.shape == (0,) and batch.seg_labels.shape == (0, 8, 8)

    def test_stack_of_no_rows_is_data_error(self):
        batch = prepare_samples(make_samples(2), SMALL)
        with pytest.raises(DataError, match="empty row list"):
            stack_features(batch, [])

    def test_mixed_availability_is_data_error_at_forward(self):
        samples = make_samples(2)
        samples[1] = inject_fault(samples[1], FaultSpec("camera", "blackout"))
        net = FusionNetwork(config=SMALL, seed=0)
        batch = prepare_samples(samples, net.config)
        with pytest.raises(DataError, match=re.escape(
                "[(False, True, True), (True, True, True)]")):
            net.forward(batch)


class TestDecoders:
    def test_distributions_sum_to_one(self):
        net = FusionNetwork(config=SMALL, seed=0)
        batch = prepare_samples(make_samples(3), net.config)
        result = net.forward(batch)
        assert np.abs(result.command_probs.data.sum(-1) - 1.0).max() < 1e-9
        assert np.abs(result.seg_probs.data.sum(-1) - 1.0).max() < 1e-9

    def test_zeroed_head_weights_uniform(self):
        net = FusionNetwork(config=SMALL, seed=0)
        net.store["head.command.weight"].data[:] = 0.0
        net.store["head.command.bias"].data[:] = 0.0
        batch = prepare_samples(make_samples(2), net.config)
        result = net.forward(batch)
        assert np.array_equal(result.command_probs.data,
                              np.full_like(result.command_probs.data, 0.25))

    def test_camera_masked_still_valid_distribution(self):
        net = FusionNetwork(config=SMALL, seed=0)
        batch = prepare_samples(make_samples(2), net.config)
        result = net.forward(batch, AvailabilityMask(camera=False))
        assert np.all(np.isfinite(result.command_probs.data))
        assert np.abs(result.seg_probs.data.sum(-1) - 1.0).max() < 1e-9

    def test_seg_grid_assembly_order(self):
        # Give camera token t a basis vector and map it to class t % 4:
        # every label cell in token t's 2x2 block must argmax to t % 4,
        # which pins the token -> grid placement.
        net = FusionNetwork(config=SMALL, seed=0)
        head = net.seg_head
        head.proj.weight.data[:] = 0.0
        head.proj.bias.data[:] = 0.0
        for t in range(16):
            pattern = np.zeros((2, 2, 4))
            pattern[:, :, t % 4] = 5.0
            head.proj.weight.data[t] = pattern.reshape(-1)
        tokens = np.eye(16, SMALL.d)
        core = net.fusion
        fused = core.fuse(
            [TokenSequence("camera", Tensor.constant(tokens))],
            AvailabilityMask(depth=False, text=False),
        )
        fused.tokens = Tensor.constant(
            np.concatenate([fused.tokens.data[:1], tokens], axis=0)
        )
        grid = head(fused).data.argmax(-1)
        for row in range(8):
            for col in range(8):
                token = (row // 2) * 4 + (col // 2)
                assert grid[row, col] == token % 4


class TestNetwork:
    @pytest.mark.parametrize("mask, read, seq", [
        (AvailabilityMask(), 17, 41),
        (AvailabilityMask(camera=False), 1, 25),
    ], ids=["full", "camera_dropped"])
    def test_last_fusion_block_tape_sees_read_rows(self, mask, read, seq):
        # One training step's tape: the last fusion block's record takes
        # every token as input and outputs only the rows the heads read.
        net = FusionNetwork(config=SMALL, seed=0)
        batch = prepare_samples(make_samples(2), net.config)
        with Tape() as tape:
            loss = net.loss(net.forward(batch, mask), batch.command_ids, batch.seg_labels)
        backward(tape, loss)
        gain = net.fusion.blocks[-1].norm_attn.gain
        seen = [(rec.inputs[0].shape, rec.output.shape) for rec in tape.records
                if len(rec.inputs) > 1 and rec.inputs[1] is gain]
        assert seen == [((2, seq, SMALL.d), (2, read, SMALL.d))]

    @pytest.mark.parametrize("mask, records, blocks, reshape", [
        (AvailabilityMask(), 40, 8, 6),
        (AvailabilityMask(camera=False), 32, 6, 5),
    ], ids=["full", "camera_dropped"])
    def test_training_step_tape_size(self, mask, records, blocks, reshape):
        # One training step at the default model: each transformer block is
        # one record, with its norms, attention and MLP inside it; the one
        # layer_norm record left is the fusion stack's final norm.
        net = FusionNetwork(config=ModelConfig(), seed=0)
        batch = prepare_samples(make_samples(2), net.config)
        with Tape() as tape:
            net.loss(net.forward(batch, mask), batch.command_ids, batch.seg_labels)
        ops = [rec.backward_fn.__qualname__.split(".")[0] for rec in tape.records]
        assert (len(ops), ops.count("TransformerBlock"), ops.count("reshape"),
                ops.count("transpose")) == (records, blocks, reshape, 1)
        assert (ops.count("attention"), ops.count("gelu"), ops.count("layer_norm")) == (0, 0, 1)

    def test_block_record_shrinks_a_step_memory(self, monkeypatch):
        # One batch-32 default step, measured by tracemalloc, which sees
        # numpy's buffers: the tape's live bytes after the forward and the
        # peak above the start during backward, for the block record and
        # for the chain of ops it replaces. They read 40.1 and 47.2 MB
        # against 63.1 and 69.7 MB (ratios 0.635 and 0.68).
        net = FusionNetwork(config=ModelConfig(), seed=0)
        batch = prepare_samples(make_samples(32), net.config)
        net.forward(batch)  # one-time set-up stays out of both measurements

        def step_bytes():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                with Tape() as tape:
                    loss = net.loss(net.forward(batch), batch.command_ids, batch.seg_labels)
                live = tracemalloc.get_traced_memory()[0] - base
                tracemalloc.reset_peak()
                backward(tape, loss)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
                net.store.zero_grad()
            return live, peak

        block = step_bytes()
        monkeypatch.setattr(TransformerBlock, "__call__", reference_block)
        chain = step_bytes()
        assert block[0] <= 0.65 * chain[0], (block, chain)
        assert block[1] <= 0.7 * chain[1], (block, chain)

    def test_batched_matches_single(self):
        net = FusionNetwork(config=SMALL, seed=1)
        batch = prepare_samples(make_samples(3), net.config)
        together = net.forward(batch).command_probs.data
        for i in range(batch.size):
            alone = net.forward(stack_features(batch, [i])).command_probs.data[0]
            assert np.abs(together[i] - alone).max() < 1e-9

    def test_save_load_roundtrip(self, tmp_path):
        net = FusionNetwork(config=SMALL, seed=1)
        batch = prepare_samples(make_samples(2), net.config)
        before = net.forward(batch).command_probs.data
        path = tmp_path / "model.ckpt"
        net.save(path)
        other = FusionNetwork(config=SMALL, seed=99)
        other.load(path)
        after = other.forward(batch).command_probs.data
        assert np.array_equal(before, after)

    def test_checkpoint_config_mismatch(self, tmp_path):
        net = FusionNetwork(config=SMALL, seed=1)
        path = tmp_path / "model.ckpt"
        net.save(path)
        with pytest.raises(CheckpointError):
            FusionNetwork.from_checkpoint(path, config=ModelConfig(d=32))


class TestTraining:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(p_drop=0.6)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ConfigError):
            from_plain(TrainConfig, {"epoch": 3}, "training")

    def test_train_config_roundtrip(self):
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=2e-3, p_drop=0.1, seed=4)
        assert from_plain(TrainConfig, to_plain(config), "training") == config

    def test_training_is_deterministic(self):
        samples = make_samples(12)
        curves = []
        nets = []
        for _ in range(2):
            net = FusionNetwork(config=SMALL, seed=2)
            curves.append(train(net, samples, TrainConfig(epochs=2, batch_size=4, seed=5)))
            nets.append(net)
        assert curves[0] == curves[1]
        for path in nets[0].store.paths():
            assert np.array_equal(nets[0].store[path].data, nets[1].store[path].data)

    def test_loss_descends_within_first_epochs(self):
        samples = make_samples(32)
        net = FusionNetwork(config=SMALL, seed=2)
        curve = train(net, samples, TrainConfig(epochs=3, batch_size=8, seed=5))
        assert np.mean(curve[-4:]) < curve[0]

    def test_empty_dataset_errors(self):
        net = FusionNetwork(config=SMALL, seed=2)
        with pytest.raises(TrainingError):
            train(net, [], TrainConfig(epochs=1))

    def test_faulted_sample_rejected_for_training(self):
        samples = make_samples(2)
        broken = Sample(
            sample_id=samples[0].sample_id,
            rgb=np.zeros_like(samples[0].rgb),
            cloud=samples[0].cloud,
            depth=samples[0].depth,
            text=samples[0].text,
            command=samples[0].command,
            seg_labels=samples[0].seg_labels,
        )
        net = FusionNetwork(config=SMALL, seed=2)
        with pytest.raises(DataError, match=f"sample {broken.sample_id} failed it on camera"):
            train(net, [broken, samples[1]], TrainConfig(epochs=1, batch_size=2))

    def test_evaluate_deterministic_and_grouped(self):
        samples = make_samples(6)
        silent = samples[3]
        samples[3] = Sample(
            sample_id=silent.sample_id,
            rgb=silent.rgb,
            cloud=silent.cloud,
            depth=silent.depth,
            text="",
            command=silent.command,
            seg_labels=silent.seg_labels,
        )
        net = FusionNetwork(config=SMALL, seed=2)
        first, arb1 = Campaign(net, samples).evaluate()
        second, arb2 = Campaign(net, samples).evaluate()
        assert to_plain(first) == to_plain(second)
        assert np.array_equal(arb1, arb2)
        assert 0.0 <= first.command_accuracy <= 1.0
        assert set(first.per_class) == {"stop", "go", "turn_left", "turn_right"}

    def test_metrics_validation(self):
        with pytest.raises(TrainingError):
            Metrics("nominal", 1.2, {}, 0.5)


class TestEndToEndGradients:
    def test_twenty_random_parameter_components(self):
        net = FusionNetwork(config=SMALL, seed=3)
        batch = prepare_samples(make_samples(2), net.config)

        def loss_fn():
            result = net.forward(batch)
            return net.loss(result, batch.command_ids, batch.seg_labels)

        rng = Rng(17)
        paths = net.store.paths()
        picks = []
        for _ in range(20):
            path = paths[int(rng.integers(0, len(paths)))]
            index = int(rng.integers(0, net.store[path].size))
            picks.append((path, index))
        worst = grad_check_components(loss_fn, net.store, picks)
        assert worst < 1e-4
