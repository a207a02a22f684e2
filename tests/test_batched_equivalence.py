"""Deterministic equivalence guard for the vectorized functional datapath.

The crossbar datapath was rebuilt around batched GEMM semantics (PR 1); this
module keeps a *slow reference* copy of the seed's per-vector / per-patch
implementations and asserts that, in noiseless mode, the vectorized
``matmul`` / ``linear`` / ``conv2d`` / pooling paths produce **bitwise
identical** outputs.  Any future ulp-level drift in the batched kernels that
leaks through the ADC quantiser fails these tests.
"""

import math

import numpy as np
import pytest

from repro.config import small_test_chip
from repro.core.accelerator import OpticalCrossbarAccelerator
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.crossbar import CrossbarArray, SignedCrossbarEngine
from repro.nn import build_lenet5
from repro.nn.im2col import conv_weights_matrix, im2col_matrix


# ---------------------------------------------------------------------------
# Seed (pre-vectorization) reference implementations, kept verbatim in spirit:
# one input vector / output pixel / pooling window at a time, GEMV kernels only.
# ---------------------------------------------------------------------------


def seed_array_matvec(array: CrossbarArray, vector: np.ndarray, quantize: bool = True):
    """The seed's CrossbarArray.matvec: modulate, GEMV, detect."""
    modulated = array.odac.modulate(np.asarray(vector, dtype=float))
    scale = array.laser_field / (array.rows * math.sqrt(array.columns))
    fields = scale * (modulated @ array.weights)
    raw = fields / scale
    if not quantize:
        return raw
    full_scale = array.adc_full_scale
    levels = (1 << array.technology.output_bits) - 1
    codes = np.clip(np.round(raw / full_scale * levels), 0, levels)
    return codes / levels * full_scale


def seed_array_matmul(array: CrossbarArray, inputs: np.ndarray, quantize: bool = True):
    """The seed's CrossbarArray.matmul: a Python loop of matvec calls."""
    return np.stack([seed_array_matvec(array, vector, quantize) for vector in inputs])


def seed_signed_matvec(engine: SignedCrossbarEngine, inputs: np.ndarray) -> np.ndarray:
    """The seed's SignedCrossbarEngine.matvec (per-vector scale, 4 passes)."""
    inputs = np.asarray(inputs, dtype=float)
    input_scale = float(np.max(np.abs(inputs)))
    if input_scale == 0.0:
        return np.zeros(engine.columns)
    normalised = inputs / input_scale
    positive_in = np.clip(normalised, 0.0, None)
    negative_in = np.clip(-normalised, 0.0, None)
    result = seed_array_matvec(engine.positive_array, positive_in) - seed_array_matvec(
        engine.negative_array, positive_in
    )
    if np.any(negative_in > 0):
        result -= seed_array_matvec(engine.positive_array, negative_in) - seed_array_matvec(
            engine.negative_array, negative_in
        )
    return result * engine.weight_scale * input_scale


def seed_signed_matmul(engine: SignedCrossbarEngine, inputs: np.ndarray) -> np.ndarray:
    return np.stack([seed_signed_matvec(engine, vector) for vector in inputs])


def seed_linear(config, weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """The seed's OpticalCrossbarAccelerator.linear: re-program every tile per call."""
    weights = np.asarray(weights, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    single_vector = inputs.ndim == 1
    if single_vector:
        inputs = inputs[None, :]
    k, n = weights.shape
    rows, columns = config.rows, config.columns
    num_vectors = inputs.shape[0]
    result = np.zeros((num_vectors, n))
    for k_start in range(0, k, rows):
        k_end = min(k_start + rows, k)
        tile_rows = k_end - k_start
        for n_start in range(0, n, columns):
            n_end = min(n_start + columns, n)
            tile_cols = n_end - n_start
            tile = np.zeros((rows, columns))
            tile[:tile_rows, :tile_cols] = weights[k_start:k_end, n_start:n_end]
            engine = SignedCrossbarEngine(rows, columns, technology=config.technology)
            engine.program(tile)
            padded_inputs = np.zeros((num_vectors, rows))
            padded_inputs[:, :tile_rows] = inputs[:, k_start:k_end]
            partial = seed_signed_matmul(engine, padded_inputs)
            result[:, n_start:n_end] += partial[:, :tile_cols]
    return result[0] if single_vector else result


def seed_im2col(feature_map: np.ndarray, kernel_size: int, stride: int = 1, padding: int = 0):
    """The seed's per-patch im2col loop."""
    feature_map = np.asarray(feature_map, dtype=float)
    if padding:
        feature_map = np.pad(
            feature_map, ((padding, padding), (padding, padding), (0, 0)), mode="constant"
        )
    padded_h, padded_w = feature_map.shape[:2]
    out_h = (padded_h - kernel_size) // stride + 1
    out_w = (padded_w - kernel_size) // stride + 1
    rows = []
    for out_y in range(out_h):
        for out_x in range(out_w):
            y0 = out_y * stride
            x0 = out_x * stride
            patch = feature_map[y0 : y0 + kernel_size, x0 : x0 + kernel_size, :]
            rows.append(patch.reshape(-1))
    return np.stack(rows, axis=0)


def seed_pool(tensor: np.ndarray, kernel: int, stride: int, padding: int, kind: str):
    """The seed's per-window pooling loops."""
    if padding:
        pad_value = -np.inf if kind == "max" else 0.0
        tensor = np.pad(
            tensor,
            ((padding, padding), (padding, padding), (0, 0)),
            mode="constant",
            constant_values=pad_value,
        )
    height, width, channels = tensor.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    output = np.empty((out_h, out_w, channels))
    for y in range(out_h):
        for x in range(out_w):
            window = tensor[y * stride : y * stride + kernel, x * stride : x * stride + kernel, :]
            output[y, x, :] = window.max(axis=(0, 1)) if kind == "max" else window.mean(axis=(0, 1))
    return output


def seed_conv2d(config, feature_map: np.ndarray, weights: np.ndarray, stride: int, padding: int):
    """The seed's conv2d: per-patch im2col + per-call tile programming."""
    kernel = np.asarray(weights).shape[0]
    unrolled = seed_im2col(feature_map, kernel, stride, padding)
    flat_weights = conv_weights_matrix(weights)
    product = seed_linear(config, flat_weights, unrolled)
    feature_map = np.asarray(feature_map, dtype=float)
    out_h = (feature_map.shape[0] + 2 * padding - kernel) // stride + 1
    out_w = (feature_map.shape[1] + 2 * padding - kernel) // stride + 1
    return product.reshape(out_h, out_w, flat_weights.shape[1])


# ---------------------------------------------------------------------------
# Equivalence assertions
# ---------------------------------------------------------------------------


class TestArrayEquivalence:
    def test_batched_matmul_bitwise_matches_per_vector_loop(self):
        rng = np.random.default_rng(0)
        array = CrossbarArray(64, 64)
        array.program_weights(rng.uniform(0, 1, (64, 64)))
        inputs = rng.uniform(0, 1, (64, 64))
        batched = array.matmul(inputs)
        reference = seed_array_matmul(array, inputs)
        assert batched.dtype == reference.dtype
        assert np.array_equal(batched, reference)

    def test_batched_matmul_many_shapes(self):
        rng = np.random.default_rng(1)
        for rows, columns, num in [(8, 8, 3), (16, 12, 31), (33, 7, 65), (5, 40, 2)]:
            array = CrossbarArray(rows, columns)
            array.program_weights(rng.uniform(0, 1, (rows, columns)))
            inputs = rng.uniform(0, 1, (num, rows))
            assert np.array_equal(array.matmul(inputs), seed_array_matmul(array, inputs))

    def test_matvec_bitwise_matches_seed_matvec(self):
        rng = np.random.default_rng(2)
        array = CrossbarArray(32, 24)
        array.program_weights(rng.uniform(0, 1, (32, 24)))
        for _ in range(10):
            vector = rng.uniform(0, 1, 32)
            assert np.array_equal(array.matvec(vector), seed_array_matvec(array, vector))

    def test_weights_only_noise_model_keeps_bitwise_guarantee(self):
        # weight_programming_std does not enter the field datapath, so the
        # batched path must still match the per-vector loop bitwise.
        from repro.crossbar import CrossbarNoiseModel

        rng = np.random.default_rng(20)
        model = CrossbarNoiseModel(weight_programming_std=0.05)
        array = CrossbarArray(64, 64, noise_model=model)
        array.program_weights(rng.uniform(0, 1, (64, 64)))
        inputs = rng.uniform(0, 1, (64, 64))
        batched = array.matmul(inputs)
        per_vector = np.stack([array.matvec(vector) for vector in inputs])
        assert np.array_equal(batched, per_vector)

    def test_analog_path_close_to_per_vector(self):
        # The unquantised (analog inspection) path only promises ulp-level
        # agreement between GEMM and GEMV kernels, not bitwise identity.
        rng = np.random.default_rng(3)
        array = CrossbarArray(48, 48)
        array.program_weights(rng.uniform(0, 1, (48, 48)))
        inputs = rng.uniform(0, 1, (16, 48))
        batched = array.matmul(inputs, quantize_output=False)
        reference = seed_array_matmul(array, inputs, quantize=False)
        np.testing.assert_allclose(batched, reference, rtol=1e-12, atol=1e-15)


class TestSignedEquivalence:
    def test_mixed_sign_batch_bitwise(self):
        rng = np.random.default_rng(4)
        engine = SignedCrossbarEngine(24, 16)
        engine.program(rng.normal(size=(24, 16)))
        inputs = rng.normal(size=(40, 24))
        inputs[5] = 0.0  # zero vector inside a mixed batch
        inputs[11] = np.abs(inputs[11])  # all-positive vector inside a mixed batch
        assert np.array_equal(engine.matmul(inputs), seed_signed_matmul(engine, inputs))

    def test_nonnegative_batch_bitwise(self):
        rng = np.random.default_rng(5)
        engine = SignedCrossbarEngine(16, 16)
        engine.program(rng.normal(size=(16, 16)))
        inputs = rng.uniform(0, 1, (20, 16))
        assert np.array_equal(engine.matmul(inputs), seed_signed_matmul(engine, inputs))


class TestAcceleratorEquivalence:
    @pytest.fixture()
    def config(self):
        return small_test_chip()

    def test_linear_bitwise_matches_seed_tiling(self, config):
        rng = np.random.default_rng(6)
        accelerator = OpticalCrossbarAccelerator(config)
        weights = rng.normal(size=(20, 11))  # forces tiling on the 8x8 chip
        inputs = rng.uniform(-1, 1, (9, 20))
        assert np.array_equal(
            accelerator.linear(weights, inputs), seed_linear(config, weights, inputs)
        )
        # Repeated call through the warm tile cache stays identical.
        assert np.array_equal(
            accelerator.linear(weights, inputs), seed_linear(config, weights, inputs)
        )

    def test_conv2d_bitwise_matches_seed(self, config):
        rng = np.random.default_rng(7)
        accelerator = OpticalCrossbarAccelerator(config)
        fmap = rng.uniform(0, 1, (7, 6, 3))
        weights = rng.normal(size=(3, 3, 3, 5))
        for stride, padding in [(1, 0), (1, 1), (2, 1)]:
            optical = accelerator.conv2d(fmap, weights, stride=stride, padding=padding)
            reference = seed_conv2d(config, fmap, weights, stride=stride, padding=padding)
            assert np.array_equal(optical, reference)

    def test_batched_conv2d_bitwise_matches_per_image(self, config):
        rng = np.random.default_rng(8)
        accelerator = OpticalCrossbarAccelerator(config)
        fmaps = rng.uniform(0, 1, (4, 6, 6, 2))
        weights = rng.normal(size=(3, 3, 2, 4))
        batched = accelerator.conv2d(fmaps, weights, stride=1, padding=1)
        per_image = np.stack(
            [seed_conv2d(config, fmap, weights, stride=1, padding=1) for fmap in fmaps]
        )
        assert np.array_equal(batched, per_image)


class TestFusedKBlockEquivalence:
    """The fused k-block pass against the seed's per-tile, per-vector loop."""

    @pytest.mark.parametrize(
        "rows, k, n",
        [
            (8, 20, 3),  # k % rows != 0 and n < columns
            (32, 25, 6),  # LeNet conv1 on the 32x32 chip: one partial tile
            (8, 37, 19),  # n % columns != 0: full tiles plus a partial one
            (8, 16, 24),  # an exact grid: every tile full width
        ],
    )
    @pytest.mark.parametrize("num_vectors", [1, 2, 9])
    def test_ragged_grids_bitwise(self, rows, k, n, num_vectors):
        config = small_test_chip(rows=rows, columns=rows)
        rng = np.random.default_rng(rows * 1000 + k * 10 + n + num_vectors)
        weights = rng.normal(size=(k, n))
        inputs = rng.uniform(0, 1, (num_vectors, k))
        accelerator = OpticalCrossbarAccelerator(config)
        assert np.array_equal(
            accelerator.linear(weights, inputs), seed_linear(config, weights, inputs)
        )

    def test_signed_inputs_take_the_negative_pass_bitwise(self):
        config = small_test_chip()
        rng = np.random.default_rng(13)
        weights = rng.normal(size=(29, 13))
        inputs = rng.normal(size=(11, 29))
        inputs[2] = 0.0  # a zero vector
        inputs[4] = np.abs(inputs[4])  # an all-positive vector
        inputs[:, 8:16] = 0.0  # a k-block that is zero for every vector
        inputs[6, 16:24] = -np.abs(inputs[6, 16:24])  # an all-negative slice
        accelerator = OpticalCrossbarAccelerator(config)
        assert np.array_equal(
            accelerator.linear(weights, inputs), seed_linear(config, weights, inputs)
        )
        for vector in inputs:
            assert np.array_equal(
                accelerator.linear(weights, vector), seed_linear(config, weights, vector)
            )

    def test_single_vector_half_lsb_tie_is_repaired_to_the_gemv_code(self):
        # Column 0 of the first tile sums eight full-scale PCM levels, so the
        # ADC full scale is 8 and the quantiser argument of output 0 is
        # (63 + 5) / 8 = 8.5: an exact half-LSB tie on the quantised lattice.
        config = small_test_chip()
        rng = np.random.default_rng(14)
        weights = rng.uniform(0, 1, (8, 16)) * 0.5
        weights[:, 0] = 1.0
        vector = np.zeros(8)
        vector[0], vector[1] = 1.0, 5 / 63

        array = CrossbarArray(8, 8)
        array.program_weights(weights[:, :8])
        levels = (1 << array.technology.output_bits) - 1
        raw = seed_array_matvec(array, vector, quantize=False)
        quantiser_arg = raw[0] / array.adc_full_scale * levels
        assert abs(quantiser_arg - np.floor(quantiser_arg) - 0.5) < 1e-6

        accelerator = OpticalCrossbarAccelerator(config)
        expected = seed_linear(config, weights, vector)
        assert np.array_equal(accelerator.linear(weights, vector), expected)
        assert np.array_equal(accelerator.linear(weights, vector[None]), expected[None])


class TestPoolingAndIm2colEquivalence:
    def test_im2col_bitwise_matches_loop(self):
        rng = np.random.default_rng(9)
        for (h, w, c), k, s, p in [
            ((6, 6, 3), 3, 1, 1),
            ((8, 5, 2), 2, 2, 0),
            ((7, 9, 4), 3, 3, 2),
            ((4, 4, 1), 4, 1, 0),
        ]:
            fmap = rng.normal(size=(h, w, c))
            assert np.array_equal(
                im2col_matrix(fmap, k, s, p), seed_im2col(fmap, k, s, p)
            )

    def test_pooling_bitwise_matches_loop(self):
        from repro.core.inference import _avg_pool, _max_pool

        rng = np.random.default_rng(10)
        for (h, w, c), k, s, p in [
            ((8, 8, 3), 2, 2, 0),
            ((11, 9, 4), 3, 2, 1),
            ((7, 7, 2), 3, 1, 0),
        ]:
            batch = rng.normal(size=(3, h, w, c))
            vec_max = _max_pool(batch, k, s, p)
            vec_avg = _avg_pool(batch, k, s, p)
            for i in range(batch.shape[0]):
                assert np.array_equal(vec_max[i], seed_pool(batch[i], k, s, p, "max"))
                assert np.array_equal(vec_avg[i], seed_pool(batch[i], k, s, p, "avg"))


class TestEndToEndEquivalence:
    def test_noiseless_lenet_bitwise_identical_to_seed_execution(self):
        """Full noiseless functional LeNet: batched engine == seed per-step loops."""
        network = build_lenet5(input_size=12)
        weights = generate_random_weights(network, seed=6, scale=0.3)
        config = small_test_chip(rows=64, columns=64)
        engine = FunctionalInferenceEngine(network, weights, config)
        rng = np.random.default_rng(7)
        images = rng.uniform(0, 1, (3, 12, 12, 1))

        def seed_lenet(image):
            # conv1 (pad 2) -> avg pool -> conv2 -> avg pool -> fc1/fc2/fc3,
            # mirroring the seed FunctionalInferenceEngine._execute layer loop.
            current = seed_conv2d(config, image, weights["conv1"], stride=1, padding=2)
            current = np.maximum(current, 0.0)
            current = seed_pool(current, 2, 2, 0, "avg")
            current = seed_conv2d(config, current, weights["conv2"], stride=1, padding=0)
            current = np.maximum(current, 0.0)
            current = seed_pool(current, 2, 2, 0, "avg")
            vector = current.reshape(-1)
            vector = np.maximum(seed_linear(config, weights["fc1"], vector), 0.0)
            vector = np.maximum(seed_linear(config, weights["fc2"], vector), 0.0)
            return seed_linear(config, weights["fc3"], vector)

        expected = np.stack([seed_lenet(image) for image in images])
        per_image = np.stack([engine.run(image) for image in images])
        assert np.array_equal(per_image, expected)
        batched = engine.run_batch(images)
        assert np.array_equal(batched, expected)

    def test_run_batch_bitwise_matches_per_image_run(self):
        network = build_lenet5(input_size=12)
        weights = generate_random_weights(network, seed=11, scale=0.3)
        engine = FunctionalInferenceEngine(
            network, weights, small_test_chip(rows=32, columns=32)
        )
        rng = np.random.default_rng(12)
        images = rng.uniform(0, 1, (5, 12, 12, 1))
        batched = engine.run_batch(images)
        per_image = np.stack([engine.run(image) for image in images])
        assert np.array_equal(batched, per_image)
        reference_batched = engine.run_batch_reference(images)
        reference_per_image = np.stack([engine.run_reference(image) for image in images])
        assert np.array_equal(reference_batched, reference_per_image)
