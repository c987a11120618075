import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracgi import metrics, moments, speckle
from fracgi.moments import (
    GhostImage,
    MomentOrder,
    _Sums,
    _power,
    multi_order_pass,
)
from fracgi.objects import ObjectMask, block_mask, classify_units, letter_a_mask
from fracgi.speckle import TINY_INTENSITY, SampleSet, SpeckleConfig
from fracgi.theory import DomainError, predict

from conftest import all_buckets


def frame(reference, bucket):
    """One frame as a one-row batch: (references, buckets)."""
    return np.asarray([reference], float), np.array([bucket], float)


# -- order validation --------------------------------------------------------


def test_mu_zero_rejected():
    with pytest.raises(DomainError):
        MomentOrder(mu=0.0, nu=0.5)


def test_nu_below_minus_half_always_rejected():
    with pytest.raises(DomainError):
        MomentOrder(mu=1.0, nu=-0.6)


def test_small_negative_nu_gated():
    # the paper's rule: the reference order must be positive; no keyword admits others
    for nu in (0.0, -0.2):
        with pytest.raises(DomainError, match=f"^nu = {nu:g} is rejected: the reference "
                                              "order must be positive$"):
            MomentOrder(1.0, nu)
        with pytest.raises(TypeError):
            MomentOrder(1.0, nu, allow_small_negative_nu=True)
    assert [f.name for f in dataclasses.fields(MomentOrder)] == ["mu", "nu"]


def test_positive_nu_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        MomentOrder(mu=-1.414, nu=0.5)


# -- per-batch reducer ---------------------------------------------------------


def test_accumulate_integer_orders():
    sums = _Sums([MomentOrder(mu=1.0, nu=1.0)], 1)
    sums.add_batch(*frame([3.0], 2.0))
    assert sums.joint[0, 0] == pytest.approx(6.0)
    assert sums.bucket[0] == pytest.approx(2.0)
    assert sums.ref[0, 0] == pytest.approx(3.0)
    assert sums.joint2[0, 0] == pytest.approx(36.0)
    assert sums.n == 1


def test_accumulate_negative_mu():
    sums = _Sums([MomentOrder(mu=-1.0, nu=1.0)], 1)
    sums.add_batch(*frame([3.0], 2.0))
    assert sums.joint[0, 0] == pytest.approx(1.5)


def test_accumulate_unit_powers():
    sums = _Sums([MomentOrder(mu=0.618, nu=0.5)], 1)
    sums.add_batch(*frame([1.0], 1.0))
    assert sums.joint[0, 0] == pytest.approx(1.0)


def test_power_overflow_raises():
    sums = _Sums([MomentOrder(mu=-3.0, nu=0.5)], 1)
    with pytest.raises(DomainError):
        sums.add_batch(*frame([1.0], 1e-300))


def test_power_overflow_names_first_overflowing_order():
    orders = [MomentOrder(1.0, 0.5), MomentOrder(-3.0, 0.5), MomentOrder(-4.0, 0.5)]
    with pytest.raises(DomainError, match=r"mu=-3\.0, nu=0\.5"):
        _Sums(orders, 1).add_batch(*frame([1.0], 1e-300))


@pytest.mark.filterwarnings("error")
def test_merge_overflow_raises():
    # each one-frame shard's joint2 is 1e308, just below the largest double;
    # their sum is not
    order = MomentOrder(mu=2.0, nu=0.5)
    left, right = _Sums([order], 1), _Sums([order], 1)
    for sums in (left, right):
        sums.add_batch(*frame([1.0], 1e77))
    assert np.isfinite(left.joint2).all()
    with pytest.raises(DomainError, match=r"mu=2\.0, nu=0\.5"):
        left.merge(right)


# -- merge associativity -----------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=50.0),
            st.floats(min_value=0.01, max_value=50.0),
            st.floats(min_value=0.01, max_value=50.0),
        ),
        min_size=4,
        max_size=40,
    ),
    st.data(),
)
def test_merge_matches_serial(rows, data):
    order = MomentOrder(mu=1.414, nu=0.5)
    frames = [frame([a, b], c) for a, b, c in rows]

    serial = _Sums([order], 2)
    for f in frames:
        serial.add_batch(*f)

    cut = data.draw(st.integers(min_value=1, max_value=len(frames) - 1))
    left, right = _Sums([order], 2), _Sums([order], 2)
    for f in frames[:cut]:
        left.add_batch(*f)
    for f in frames[cut:]:
        right.add_batch(*f)
    left.merge(right)

    assert left.n == serial.n
    np.testing.assert_allclose(left.joint, serial.joint, rtol=1e-12)
    np.testing.assert_allclose(left.joint2, serial.joint2, rtol=1e-12)
    np.testing.assert_allclose(left.ref, serial.ref, rtol=1e-12)
    assert left.bucket[0] == pytest.approx(serial.bucket[0], rel=1e-12)


def test_merge_shape_mismatch():
    a = _Sums([MomentOrder(mu=1.0, nu=1.0)], 2)
    b = _Sums([MomentOrder(mu=1.0, nu=1.0)], 3)
    with pytest.raises(ValueError):
        a.merge(b)


# -- finalize ----------------------------------------------------------------


def test_finalize_requires_two_frames():
    sums = _Sums([MomentOrder(mu=1.0, nu=1.0)], 1)
    sums.add_batch(*frame([1.0], 1.0))
    with pytest.raises(ValueError, match="at least 2 frames"):
        sums.finalize(1, 1)


def test_finalize_normalization():
    sums = _Sums([MomentOrder(mu=1.0, nu=1.0)], 1)
    sums.add_batch(*frame([2.0], 4.0))
    sums.add_batch(*frame([1.0], 3.0))
    (image,) = sums.finalize(1, 1)
    # g = mean(joint) / (mean(bucket)*mean(ref)) = 5.5 / (3.5 * 1.5)
    assert image.g[0] == pytest.approx(5.5 / 5.25)
    assert image.n_samples == 2


# -- streaming passes over sample sets ---------------------------------------


@pytest.fixture(scope="module")
def small_run():
    mask = letter_a_mask()
    cfg = SpeckleConfig(i0=1.0, seed=101, n=mask.n)
    return mask, SampleSet(cfg, mask, 30_000)


@pytest.fixture(scope="module")
def wide_run():
    # n = 4096 units: 64-frame batches, where letter A gets 2048
    units = (np.random.default_rng(5).random(64 * 64) < 0.3).astype(float)
    mask = ObjectMask(width=64, height=64, units=units)
    samples = SampleSet(SpeckleConfig(i0=1.0, seed=102, n=mask.n), mask, 2_000)
    assert samples.batch_size == 64
    return mask, samples


def test_multi_order_matches_manual_accumulation(small_run, wide_run, monkeypatch):
    # nu = 0.5 takes the sqrt path of the reference powers, nu = 0.7 the
    # log-space one
    orders = [MomentOrder(mu=0.618, nu=0.5), MomentOrder(mu=-1.0, nu=0.7)]
    # null pairing (shift 1) on 16 shards of two batches, the last one
    # ending mid-batch, and on two frames, one batch; in both frame N-1
    # meets frame 0
    wide_mask, wide = wide_run
    two = SampleSet(wide.config, wide_mask, 2)
    for (mask, samples), shard_size, shift in (
        (small_run, 1024, 0), (wide_run, 1024, 0), (wide_run, 128, 1), ((wide_mask, two), 1024, 1),
    ):
        monkeypatch.setattr(moments, "_SHARD_SIZE", shard_size)
        images = multi_order_pass(samples, orders, null_pairing=shift == 1)
        # independent plain-numpy reference over all frames at once
        refs = np.concatenate([r for _, r, _ in samples.iter_batches()])
        buckets = np.roll(all_buckets(samples), -shift)
        for order, image in zip(orders, images):
            bucket_pow = buckets**order.mu
            ref_pow = refs**order.nu
            joint_mean = (bucket_pow[:, None] * ref_pow).mean(axis=0)
            joint2_mean = ((bucket_pow**2)[:, None] * ref_pow**2).mean(axis=0)
            g = joint_mean / (bucket_pow.mean() * ref_pow.mean(axis=0))
            np.testing.assert_allclose(image.joint_mean, joint_mean, rtol=1e-12)
            np.testing.assert_allclose(image.joint2_mean, joint2_mean, rtol=1e-12)
            np.testing.assert_allclose(image.ref_mean, ref_pow.mean(axis=0), rtol=1e-12)
            assert image.bucket_mean == pytest.approx(bucket_pow.mean(), rel=1e-12)
            np.testing.assert_allclose(image.g, g, rtol=1e-12)
            assert (image.width, image.height) == (mask.width, mask.height)


@pytest.mark.filterwarnings("error")
def test_power_sqrt_and_log_space_paths():
    x = np.concatenate([[TINY_INTENSITY, 1e-300, 1e-10, 1.0, 2.0, 50.0],
                        np.random.default_rng(0).exponential(1.0, 10_000)])
    assert np.array_equal(_power(x, 0.5), np.sqrt(x))
    for nu in (0.7, -1.0, 1.414, -0.3, 2.7183):
        # exp(nu * log x) carries the rounding of nu * log x as relative
        # error: a few ulp for moderate x, more near TINY_INTENSITY
        expected = x**nu
        bound = (np.abs(nu * np.log(x)) + 4) * np.finfo(float).eps * expected
        assert np.all(np.abs(_power(x, nu) - expected) <= bound)


def test_order_alone_matches_order_in_six_order_run(small_run, wide_run):
    # each order's sums are one mat-vec per batch over the shared reference
    # powers, so the other orders sharing its nu do not touch its bits
    orders = [MomentOrder(mu, 0.5) for mu in (-2.7183, -1.414, -0.618, 0.618, 1.414, 2.7183)]
    for _, samples in (small_run, wide_run):
        six = multi_order_pass(samples, orders)
        for order, image in zip(orders, six):
            (alone,) = multi_order_pass(samples, [order])
            for field in ("g", "joint_mean", "joint2_mean", "ref_mean"):
                assert np.array_equal(getattr(alone, field), getattr(image, field))
            assert alone.bucket_mean == image.bucket_mean
            assert alone.bucket2_mean == image.bucket2_mean


def test_worker_count_bitwise_identical(small_run, wide_run, monkeypatch):
    orders = [MomentOrder(mu, 0.5) for mu in (-1.414, 0.618)]
    # 30000 letter-A frames make 4 default shards; the 2000 wide frames
    # need smaller ones; 469 shards of 64 frames span four windows of the
    # four-worker pool, the last one partly filled; the last pass is
    # validate's: class averages under null pairing, over 30 shards
    classes = metrics.class_average_matrix(classify_units(small_run[0]))
    for (_, samples), shard_size, groups, null_pairing in (
        (small_run, moments._SHARD_SIZE, None, False), (wide_run, 512, None, False),
        (small_run, 64, None, False), (small_run, 1024, classes, True),
    ):
        monkeypatch.setattr(moments, "_SHARD_SIZE", shard_size)
        one, four = (multi_order_pass(samples, orders, workers=workers, groups=groups,
                                      null_pairing=null_pairing) for workers in (1, 4))
        for a, b in zip(one, four):
            assert np.array_equal(a.g, b.g)
            assert np.array_equal(a.joint_mean, b.joint_mean)
            assert np.array_equal(a.joint2_mean, b.joint2_mean)
            assert a.bucket_mean == b.bucket_mean


@pytest.mark.parametrize("workers", [1, 2])
def test_pass_reuses_one_buffer_per_worker(monkeypatch, workers):
    # every batch of a multi-shard pass draws into one of at most `workers`
    # buffers, and the images equal sums over fresh per-batch arrays bit for
    # bit: nu = 0.5 (sqrt), nu = 0.7 (log space) and a grouped pass
    drawn_into = []
    real_block = speckle._intensity_block

    def recording_block(config, start, count, out=None):
        drawn_into.append(out)
        return real_block(config, start, count, out)

    monkeypatch.setattr(speckle, "_intensity_block", recording_block)
    letter = letter_a_mask()
    units = (np.random.default_rng(5).random(64 * 64) < 0.3).astype(float)
    wide = ObjectMask(width=64, height=64, units=units)
    orders = [MomentOrder(0.618, 0.5), MomentOrder(-1.414, 0.5), MomentOrder(0.618, 0.7)]
    groups = metrics.class_average_matrix(classify_units(letter))
    for mask, n_frames, shard_size, pass_groups in (
        (letter, 6 * 2048 + 77, 2048, None),
        (letter, 6 * 2048 + 77, 2048, groups),
        (wide, 5 * 128 - 3, 128, None),
    ):
        samples = SampleSet(SpeckleConfig(i0=1.0, seed=11, n=mask.n), mask, n_frames)
        monkeypatch.setattr(moments, "_SHARD_SIZE", shard_size)
        drawn_into.clear()
        images = multi_order_pass(samples, orders, workers=workers, groups=pass_groups)
        assert len(drawn_into) == -(-n_frames // samples.batch_size)
        assert all(out is not None for out in drawn_into)
        assert len({id(out) for out in drawn_into}) <= workers
        # reference: each shard's sums from fresh batches, merged in order
        drawn_into.clear()
        shards = []
        for start in range(0, n_frames, shard_size):
            sums = _Sums(orders, images[0].g.size)
            for _, refs, buckets in samples.iter_batches(start, min(start + shard_size, n_frames)):
                sums.add_batch(refs, buckets, pass_groups)
            shards.append(sums)
        assert all(out is None for out in drawn_into)
        width, height = images[0].width, images[0].height
        expected = functools.reduce(_Sums.merge, shards).finalize(width, height)
        for image, reference in zip(images, expected, strict=True):
            for field in ("g", "joint_mean", "joint2_mean", "ref_mean"):
                assert np.array_equal(getattr(image, field), getattr(reference, field))
            assert image.bucket_mean == reference.bucket_mean
            assert image.bucket2_mean == reference.bucket2_mean


@pytest.mark.parametrize("workers", [1, 2])
def test_pass_memory_does_not_grow_with_shard_count(monkeypatch, workers):
    # each shard's sums are added to the total as they arrive, so a pass
    # over 128 shards peaks about where one over 4 shards does; holding
    # every shard's sums until the end would add 124 shards' worth. At two
    # workers a few finished shards may wait for the merge, and the 4-shard
    # pass may run its batches with or without overlap (4-5 MB, about 10
    # shards' sums), hence the bound of 16
    monkeypatch.setattr(moments, "_SHARD_SIZE", 64)
    units = (np.random.default_rng(5).random(64 * 64) < 0.3).astype(float)
    mask = ObjectMask(width=64, height=64, units=units)
    orders = [MomentOrder(mu, 0.5) for mu in (-2.7183, -1.414, -0.618, 0.618, 1.414, 2.7183)]
    shard_bytes = (2 * len(orders) + 1) * mask.n * 8  # joint, joint2 and ref sums
    peaks = []
    tracemalloc.start()
    try:
        for n_shards in (4, 128):
            samples = SampleSet(SpeckleConfig(i0=1.0, seed=7, n=mask.n), mask, 64 * n_shards)
            assert samples.batch_size == 64
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            multi_order_pass(samples, orders, workers=workers)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * shard_bytes


@pytest.mark.parametrize("workers", [1, 2])
def test_pass_holds_a_bounded_number_of_shards(monkeypatch, workers):
    # a pool handed every shard at once keeps a future and its sums for
    # each shard not yet merged, about 3.2 KB a shard here (6.6 MB over
    # 2048 shards); handed a window of 32 shards per worker at a time, it
    # holds about 0.4 MB however many shards the pass has
    monkeypatch.setattr(moments, "_SHARD_SIZE", 64)
    mask = block_mask(2)
    orders = [MomentOrder(0.618, 0.5)]
    peaks = []
    tracemalloc.start()
    try:
        for n_shards in (4, 2048):
            samples = SampleSet(SpeckleConfig(i0=1.0, seed=7, n=mask.n), mask, 64 * n_shards)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            multi_order_pass(samples, orders, workers=workers)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2_000_000


@pytest.mark.parametrize("workers", [1, 2])
def test_null_pairing_memory_does_not_grow_with_n(monkeypatch, workers):
    # a null-pairing pass draws one extra frame per batch for the batch's
    # last bucket and keeps no per-frame array: on a 12-unit mask with
    # class-averaging columns, 128 shards peak about where 4 do. A copy of
    # all N buckets would add 8 bytes a frame, 16 while it rolls (3.2-3.6
    # MB here); the bound, 4 bytes a frame of the larger pass (1 MB), leaves
    # room for the window of 64 shards a two-worker pass holds (0.15 MB)
    monkeypatch.setattr(moments, "_SHARD_SIZE", 2048)
    mask = block_mask(5)
    groups = metrics.class_average_matrix(classify_units(mask))
    orders = [MomentOrder(mu, 0.5) for mu in (-1.414, 0.618)]
    peaks = []
    tracemalloc.start()
    try:
        for n_shards in (4, 128):
            samples = SampleSet(SpeckleConfig(i0=1.0, seed=7, n=mask.n), mask, 2048 * n_shards)
            assert samples.batch_size == 2048
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            multi_order_pass(samples, orders, workers=workers, groups=groups, null_pairing=True)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4 * 2048 * 128


def test_empty_orders_rejected(small_run):
    _, samples = small_run
    with pytest.raises(ValueError):
        multi_order_pass(samples, [])


def test_bucket_moment_estimator_matches_closed_form(small_run):
    # <I_B^mu> for mu in {-1, 0.5, 2} at m=20
    _, samples = small_run
    for mu in (-1.0, 0.5, 2.0):
        (image,) = multi_order_pass(samples, [MomentOrder(mu, 0.5)])
        expected = predict(20, mu, 0.0, 1).moment_background
        se = math.sqrt(
            max(image.bucket2_mean - image.bucket_mean**2, 0.0) / image.n_samples
        )
        assert abs(image.bucket_mean - expected) < 5 * se


def test_background_pixels_factorize(small_run):
    mask, samples = small_run
    classes = classify_units(mask)
    (image,) = multi_order_pass(samples, [MomentOrder(1.414, 0.5)])
    zeros = classes.zero_units
    z = (image.g[zeros] - 1.0) / image.g_se()[zeros]
    assert np.abs(z).max() < 5.0


def test_classic_contrast_at_signal_pixels(small_run):
    # mu = nu = 1: mean g over t=1 pixels - 1 -> 1/m
    mask, samples = small_run
    classes = classify_units(mask)
    (image,) = multi_order_pass(samples, [MomentOrder(1.0, 1.0)])
    ones = classes.one_units
    g_mean = image.g[ones].mean()
    se = image.g_se()[ones].mean()  # conservative: ignores cross-pixel averaging
    assert abs(g_mean - 1.0 - 1.0 / 20.0) < 5 * se


def test_sign_law_on_signal_pixels(small_run):
    mask, samples = small_run
    classes = classify_units(mask)
    for mu in (-1.414, 0.618):
        (image,) = multi_order_pass(samples, [MomentOrder(mu, 0.5)])
        contrast = image.g[classes.one_units].mean() - 1.0
        assert math.copysign(1.0, contrast) == math.copysign(1.0, mu)


def test_pair_shift_destroys_image(small_run):
    mask, samples = small_run
    classes = classify_units(mask)
    (image,) = multi_order_pass(samples, [MomentOrder(1.414, 0.5)], null_pairing=True)
    z = (image.g - 1.0) / image.g_se()
    assert np.abs(z).max() < 5.0


def test_signal_moments_match_closed_forms(small_run):
    mask, samples = small_run
    classes = classify_units(mask)
    (image,) = multi_order_pass(samples, [MomentOrder(-0.618, 0.5)])
    se = image.joint_se()
    for idx in classes.one_units[:5]:
        expected = predict(20, -0.618, 0.5, 1).moment_signal
        assert abs(image.joint_mean[idx] - expected) < 5 * se[idx]
