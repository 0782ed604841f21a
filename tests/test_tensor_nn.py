"""Kernel-level checks: ops against hand examples and loop oracles,
network plumbing, and the MPRW weight file format."""

import struct

import numpy as np
import pytest

import oracles
from faceveil.errors import (
    BadMagicError,
    ConfigError,
    DegenerateInputError,
    DuplicateTensorError,
    TruncatedFileError,
    WeightLoadError,
)
from faceveil.models import detector_nets, embedding_net, proposal_net
from faceveil.nn import (
    Conv2D,
    Network,
    PReLU,
    Softmax,
    WeightStore,
    as_tensor,
    load_weights,
    save_weights,
)
from faceveil.nn.network import IM2COL_BYTES
from faceveil.nn.ops import (
    conv2d,
    fully_connected,
    fully_connected_backward,
    l2_normalize,
    maxpool2d,
    pool_output_size,
    prelu,
    softmax,
)


class TestConv2d:
    def test_all_ones_3x3(self):
        x = np.ones((1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out = conv2d(x, w, np.zeros(1))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(9.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 5, 7))
        w = np.ones((1, 1, 1, 1))
        np.testing.assert_allclose(conv2d(x, w, np.zeros(1)), x)

    def test_bias_broadcasts_per_channel(self):
        x = np.zeros((2, 4, 4))
        w = np.zeros((3, 2, 2, 2))
        out = conv2d(x, w, np.array([1.0, -2.0, 0.5]))
        for co, b in enumerate([1.0, -2.0, 0.5]):
            np.testing.assert_allclose(out[co], b)

    def test_stride_and_padding_against_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        batch = rng.normal(size=(2, 4, 6, 5))  # (C, N, H, W): four samples
        for stride, padding in [(1, 0), (2, 0), (1, 1), (2, 1), (3, 2)]:
            got = conv2d(x, w, b, stride=stride, padding=padding)
            want = oracles.conv2d_direct(x, w, b, stride, padding)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, atol=1e-5)
            got = conv2d(batch, w, b, stride=stride, padding=padding)
            for n in range(batch.shape[1]):
                want = oracles.conv2d_direct(batch[:, n], w, b, stride, padding)
                assert got[:, n].shape == want.shape
                np.testing.assert_allclose(got[:, n], want, atol=1e-5)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ConfigError):
            conv2d(np.zeros((1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 2, 2)), np.zeros(1))


class TestMaxPool:
    def test_2x2_example(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        np.testing.assert_array_equal(maxpool2d(x, 2, 2), [[[4.0]]])

    def test_ceil_mode_partial_window(self):
        # 3 columns, kernel 2 stride 2: second window is the lone column
        x = np.arange(6, dtype=float).reshape(1, 2, 3)
        out = maxpool2d(x, 2, 2)
        np.testing.assert_array_equal(out, [[[4.0, 5.0]]])

    def test_pool_output_size_ceil(self):
        assert pool_output_size(12, 2, 2) == 6
        assert pool_output_size(13, 3, 2) == 6
        assert pool_output_size(5, 2, 2) == 3

    def test_random_against_window_scan(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 13, 13))
        got = maxpool2d(x, 3, 2)
        want = oracles.maxpool_direct(x, 3, 2)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        batch = rng.normal(size=(4, 3, 13, 12))  # (C, N, H, W)
        got = maxpool2d(batch, 3, 2)
        for n in range(batch.shape[1]):
            np.testing.assert_array_equal(got[:, n], oracles.maxpool_direct(batch[:, n], 3, 2))


class TestActivations:
    def test_prelu_example(self):
        x = np.array([[[-2.0]], [[3.0]]])
        out = prelu(x, np.array([0.25, 0.25]))
        np.testing.assert_allclose(out.reshape(2), [-0.5, 3.0])

    def test_prelu_per_channel_slopes(self):
        x = -np.ones((2, 2, 2))
        out = prelu(x, np.array([0.1, 0.5]))
        np.testing.assert_allclose(out[0], -0.1)
        np.testing.assert_allclose(out[1], -0.5)

    def test_softmax_uniform(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_softmax_shift_invariant_and_overflow_safe(self):
        np.testing.assert_allclose(softmax(np.array([1000.0, 1000.0])), [0.5, 0.5])
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)

    def test_softmax_axis_on_maps(self):
        x = np.zeros((2, 3, 3))
        out = softmax(x, axis=0)
        np.testing.assert_allclose(out, 0.5)
        np.testing.assert_allclose(out.sum(axis=0), 1.0)

    def test_l2_normalize_example(self):
        np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_l2_normalize_zero_vector_degenerate(self):
        with pytest.raises(DegenerateInputError):
            l2_normalize(np.zeros(8))

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.normal(size=rng.integers(2, 40))
            out = l2_normalize(v)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-6


class TestFullyConnected:
    def test_hand_example(self):
        x = np.array([1.0, 2.0, 3.0])
        w = np.array([[1.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
        out = fully_connected(x, w, np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [-2.0, 4.0])

    def test_backward_closed_form(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=5)
        w = rng.normal(size=(3, 5))
        dy = rng.normal(size=3)
        dx, dw, db = fully_connected_backward(x, w, dy)
        np.testing.assert_allclose(dx, w.T @ dy)
        np.testing.assert_allclose(dw, np.outer(dy, x))
        np.testing.assert_allclose(db, dy)

    def test_flattens_feature_maps(self):
        x = np.arange(12, dtype=float).reshape(3, 2, 2)
        w = np.eye(12)
        out = fully_connected(x, w, np.zeros(12))
        np.testing.assert_allclose(out, x.reshape(-1))

    def test_batch_flattens_each_sample(self):
        rng = np.random.default_rng(9)
        maps = rng.normal(size=(3, 4, 2, 2))  # (C, N, H, W)
        w = rng.normal(size=(5, 12))
        b = rng.normal(size=5)
        out = fully_connected(maps, w, b)
        assert out.shape == (5, 4)
        for n in range(4):
            np.testing.assert_allclose(out[:, n], fully_connected(maps[:, n], w, b))
        np.testing.assert_allclose(fully_connected(out, np.eye(5), np.zeros(5)), out)

    def test_l2_normalize_batch_per_column(self):
        x = np.array([[3.0, 0.0], [4.0, 2.0]])
        np.testing.assert_allclose(l2_normalize(x), [[0.6, 0.0], [0.8, 1.0]])
        with pytest.raises(DegenerateInputError):
            l2_normalize(np.array([[1.0, 0.0], [1.0, 0.0]]))


class TestNetwork:
    def test_pnet_head_shapes_single_window(self):
        net = proposal_net()
        weights = net.init_weights(np.random.default_rng(0))
        heads = net.forward(weights, np.zeros((3, 12, 12)))
        assert heads["prob"].shape == (2, 1, 1)
        assert heads["box"].shape == (4, 1, 1)

    def test_pnet_dense_grid_on_larger_input(self):
        net = proposal_net()
        weights = net.init_weights(np.random.default_rng(0))
        heads = net.forward(weights, np.zeros((3, 24, 24)))
        assert heads["prob"].shape == (2, 7, 7)
        assert heads["box"].shape == (4, 7, 7)

    def test_prob_maps_are_distributions(self):
        net = proposal_net()
        weights = net.init_weights(np.random.default_rng(1))
        x = np.random.default_rng(2).uniform(-1, 1, size=(3, 20, 20))
        prob = net.forward(weights, x)["prob"]
        np.testing.assert_allclose(prob.sum(axis=0), 1.0, atol=1e-9)
        assert prob.min() >= 0.0

    def test_forward_deterministic_and_pure(self):
        net = embedding_net(32)
        weights = net.init_weights(np.random.default_rng(7))
        x = np.random.default_rng(8).uniform(-1, 1, size=(3, 32, 32)).astype(np.float32)
        before = x.copy()
        a = net.forward(weights, x)["embedding"]
        b = net.forward(weights, x)["embedding"]
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(x, before)

    def test_input_shape_validated(self):
        net = proposal_net()
        weights = net.init_weights(np.random.default_rng(0))
        with pytest.raises(ConfigError):
            net.forward(weights, np.zeros((1, 12, 12)))
        with pytest.raises(ConfigError):
            net.forward(weights, np.zeros((3, 8, 8)))

    def test_fixed_size_net_rejects_other_sizes(self):
        nets = detector_nets()
        weights = nets["rnet"].init_weights(np.random.default_rng(0))
        with pytest.raises(ConfigError):
            nets["rnet"].forward(weights, np.zeros((3, 48, 48)))

    @pytest.mark.parametrize("net", [detector_nets()["rnet"], detector_nets()["onet"],
                                     embedding_net(32)], ids=lambda n: n.name)
    def test_batch_matches_single_samples(self, net):
        weights = net.init_weights(np.random.default_rng(10))
        x = np.random.default_rng(11).uniform(-1, 1, size=(3,) + net.input_shape)
        batched = net.forward(weights, x.astype(np.float32))
        for head, y in batched.items():
            for n in range(3):
                single = net.forward(weights, x[n].astype(np.float32))[head]
                assert y[n].shape == single.shape
                np.testing.assert_allclose(y[n], single, atol=1e-5)

    def test_batch_input_validated(self):
        nets = detector_nets()
        weights = nets["rnet"].init_weights(np.random.default_rng(0))
        with pytest.raises(ConfigError):
            nets["rnet"].forward(weights, np.zeros((2, 3, 48, 48)))
        with pytest.raises(ConfigError):  # a fully convolutional net takes one image
            nets["pnet"].forward(nets["pnet"].init_weights(np.random.default_rng(0)),
                                 np.zeros((2, 3, 12, 12)))

    def test_batch_block_fits_im2col_budget(self):
        nets = detector_nets()
        # widest im2col per sample: rnet conv2 28*3*3 x 9*9, onet conv2 32*3*3 x 21*21
        assert nets["rnet"].batch_block == IM2COL_BYTES // (4 * 28 * 9 * 81)
        assert nets["onet"].batch_block == IM2COL_BYTES // (4 * 32 * 9 * 441)

    def test_missing_weight_detected(self):
        net = proposal_net()
        weights = dict(net.init_weights(np.random.default_rng(0)))
        weights.pop("pnet.conv1.w")
        with pytest.raises(ConfigError):
            net.check_weights(weights)

    def test_zero_upstream_gives_zero_param_grads(self):
        net = proposal_net()
        weights = net.init_weights(np.random.default_rng(3))
        x = np.random.default_rng(4).uniform(-1, 1, size=(3, 12, 12))
        heads, cache = net.forward_train(weights, x)
        zeros = {name: np.zeros_like(np.asarray(val)) for name, val in heads.items()}
        grads = net.backward(weights, cache, zeros)
        assert set(grads) == set(net.param_shapes())
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_single_conv_net_backward_closed_form(self):
        # 1x1 conv on a 1x1 map is w*x + b, so grads are exact by hand
        layer = Conv2D("only", 1, 1, 1)
        net = Network("tiny", (1, 1, 1), [layer], {"out": []})
        weights = {"only.w": as_tensor([2.0], (1, 1, 1, 1)), "only.b": as_tensor([0.5])}
        x = np.array([[[3.0]]])
        heads, cache = net.forward_train(weights, x)
        assert heads["out"][0, 0, 0] == pytest.approx(6.5)
        grads = net.backward(weights, cache, {"out": np.ones((1, 1, 1))})
        assert grads["only.w"].reshape(()) == pytest.approx(3.0)
        assert grads["only.b"].reshape(()) == pytest.approx(1.0)


class TestWeightStore:
    def test_as_tensor_shape_check(self):
        with pytest.raises(ConfigError):
            as_tensor([1.0, 2.0, 3.0], (2, 2))

    def test_as_tensor_scalar_promoted(self):
        assert as_tensor(5.0).shape == (1,)

    def test_store_is_immutable(self):
        store = WeightStore({"a": np.ones(3)})
        with pytest.raises(ValueError):
            store["a"][0] = 2.0

    def test_equality_is_bitwise(self):
        a = WeightStore({"t": np.array([1.0, 2.0])})
        b = WeightStore({"t": np.array([1.0, 2.0])})
        c = WeightStore({"t": np.array([1.0, 2.0 + 1e-5])})
        assert a == b
        assert a != c

    def test_merge_rejects_duplicates(self):
        a = WeightStore({"t": np.ones(1)})
        with pytest.raises(ConfigError):
            WeightStore.merge(a, a)


class TestMprwFormat:
    def test_empty_store_round_trip(self, tmp_path):
        path = tmp_path / "empty.mprw"
        save_weights(WeightStore({}), path)
        assert path.read_bytes() == b"MPRW" + struct.pack("<II", 1, 0)
        assert len(load_weights(path)) == 0

    def test_single_tensor_file_size_arithmetic(self, tmp_path):
        name = "w"
        path = tmp_path / "one.mprw"
        save_weights({name: np.ones((2, 2), dtype=np.float32)}, path)
        expected = 4 + 4 + 4 + (2 + len(name)) + 1 + 2 * 4 + 4 * 4
        assert path.stat().st_size == expected

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        store = WeightStore(
            {
                "conv.w": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                "conv.b": rng.normal(size=4).astype(np.float32),
                "oddé": rng.normal(size=(2, 1, 5)).astype(np.float32),
            }
        )
        path = tmp_path / "w.mprw"
        save_weights(store, path)
        loaded = load_weights(path)
        assert loaded == store
        assert list(loaded) == list(store)  # file order preserved
        # a second save of the loaded store reproduces the bytes
        path2 = tmp_path / "w2.mprw"
        save_weights(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_float32_payload(self, tmp_path):
        path = tmp_path / "f.mprw"
        save_weights({"t": np.array([1.0000001], dtype=np.float64)}, path)
        got = load_weights(path)["t"]
        assert got.dtype == np.float32
        assert got[0] == np.float32(1.0000001)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mprw"
        path.write_bytes(b"NOPE" + struct.pack("<II", 1, 0))
        with pytest.raises(BadMagicError):
            load_weights(path)

    def test_truncated_header_and_payload(self, tmp_path):
        path = tmp_path / "t.mprw"
        path.write_bytes(b"MPRW" + struct.pack("<I", 1))
        with pytest.raises(TruncatedFileError):
            load_weights(path)
        full = tmp_path / "full.mprw"
        save_weights({"w": np.ones((2, 2))}, full)
        clipped = tmp_path / "clipped.mprw"
        clipped.write_bytes(full.read_bytes()[:-5])
        with pytest.raises(TruncatedFileError):
            load_weights(clipped)

    def test_duplicate_tensor_name(self, tmp_path):
        body = b""
        for _ in range(2):
            body += struct.pack("<H", 1) + b"w" + struct.pack("<B", 1)
            body += struct.pack("<I", 1) + struct.pack("<f", 1.0)
        path = tmp_path / "dup.mprw"
        path.write_bytes(b"MPRW" + struct.pack("<II", 1, 2) + body)
        with pytest.raises(DuplicateTensorError):
            load_weights(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.mprw"
        path.write_bytes(b"MPRW" + struct.pack("<II", 2, 0))
        with pytest.raises(WeightLoadError):
            load_weights(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "trail.mprw"
        save_weights(WeightStore({}), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(WeightLoadError):
            load_weights(path)

    def test_zero_dimension_rejected(self, tmp_path):
        body = struct.pack("<H", 1) + b"w" + struct.pack("<B", 1) + struct.pack("<I", 0)
        path = tmp_path / "zd.mprw"
        path.write_bytes(b"MPRW" + struct.pack("<II", 1, 1) + body)
        with pytest.raises(WeightLoadError):
            load_weights(path)


class TestLayerApi:
    def test_conv_param_names_follow_layer_name(self):
        layer = Conv2D("stage.conv1", 3, 8, 3)
        assert set(layer.param_shapes()) == {"stage.conv1.w", "stage.conv1.b"}

    def test_prelu_init_slope(self):
        layer = PReLU("p", 4)
        params = layer.init_params(np.random.default_rng(0))
        np.testing.assert_allclose(params["p.slope"], 0.25)

    def test_softmax_has_no_params(self):
        assert Softmax().param_shapes() == {}
