import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracgi.moments import (
    GhostImage,
    MomentAccumulator,
    MomentOrder,
    OrderDomainError,
    multi_order_pass,
)
from fracgi.objects import ObjectMask, classify_units, letter_a_mask
from fracgi.speckle import SpeckleConfig, run_simulation
from fracgi.theory import moment_background, moment_signal


def frame(reference, bucket):
    """One frame as a one-row batch: (references, buckets)."""
    return np.asarray([reference], float), np.array([bucket], float)


# -- order validation --------------------------------------------------------


def test_mu_zero_rejected():
    with pytest.raises(OrderDomainError):
        MomentOrder(mu=0.0, nu=0.5)


def test_nu_below_minus_half_always_rejected():
    with pytest.raises(OrderDomainError):
        MomentOrder(mu=1.0, nu=-0.6)
    with pytest.raises(OrderDomainError):
        MomentOrder(mu=1.0, nu=-0.5, allow_small_negative_nu=True)


def test_small_negative_nu_gated():
    with pytest.raises(OrderDomainError):
        MomentOrder(mu=1.0, nu=-0.2)
    with pytest.warns(UserWarning):
        order = MomentOrder(mu=1.0, nu=-0.2, allow_small_negative_nu=True)
    assert order.nu == -0.2


def test_positive_nu_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        MomentOrder(mu=-1.414, nu=0.5)


# -- accumulator updates -----------------------------------------------------


def test_accumulate_integer_orders():
    acc = MomentAccumulator(1, MomentOrder(mu=1.0, nu=1.0))
    acc.update_batch(*frame([3.0], 2.0))
    assert acc.joint_sum[0] == pytest.approx(6.0)
    assert acc.bucket_sum == pytest.approx(2.0)
    assert acc.ref_sum[0] == pytest.approx(3.0)
    assert acc.joint2_sum[0] == pytest.approx(36.0)
    assert acc.n_seen == 1


def test_accumulate_negative_mu():
    acc = MomentAccumulator(1, MomentOrder(mu=-1.0, nu=1.0))
    acc.update_batch(*frame([3.0], 2.0))
    assert acc.joint_sum[0] == pytest.approx(1.5)


def test_accumulate_unit_powers():
    acc = MomentAccumulator(1, MomentOrder(mu=0.618, nu=0.5))
    acc.update_batch(*frame([1.0], 1.0))
    assert acc.joint_sum[0] == pytest.approx(1.0)


def test_power_overflow_raises():
    acc = MomentAccumulator(1, MomentOrder(mu=-3.0, nu=0.5))
    with pytest.raises(OrderDomainError):
        acc.update_batch(*frame([1.0], 1e-300))


def test_frame_size_mismatch():
    acc = MomentAccumulator(2, MomentOrder(mu=1.0, nu=1.0))
    with pytest.raises(ValueError):
        acc.update_batch(*frame([1.0], 1.0))


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

    serial = MomentAccumulator(2, order)
    for f in frames:
        serial.update_batch(*f)

    cut = data.draw(st.integers(min_value=1, max_value=len(frames) - 1))
    left, right = MomentAccumulator(2, order), MomentAccumulator(2, order)
    for f in frames[:cut]:
        left.update_batch(*f)
    for f in frames[cut:]:
        right.update_batch(*f)
    left.merge(right)

    assert left.n_seen == serial.n_seen
    np.testing.assert_allclose(left.joint_sum, serial.joint_sum, rtol=1e-12)
    np.testing.assert_allclose(left.joint2_sum, serial.joint2_sum, rtol=1e-12)
    np.testing.assert_allclose(left.ref_sum, serial.ref_sum, rtol=1e-12)
    assert left.bucket_sum == pytest.approx(serial.bucket_sum, rel=1e-12)


def test_merge_shape_mismatch():
    a = MomentAccumulator(2, MomentOrder(mu=1.0, nu=1.0))
    b = MomentAccumulator(3, MomentOrder(mu=1.0, nu=1.0))
    with pytest.raises(ValueError):
        a.merge(b)


# -- finalize ----------------------------------------------------------------


def test_finalize_requires_two_frames():
    acc = MomentAccumulator(1, MomentOrder(mu=1.0, nu=1.0))
    acc.update_batch(*frame([1.0], 1.0))
    with pytest.raises(ValueError):
        acc.finalize()


def test_finalize_normalization():
    order = MomentOrder(mu=1.0, nu=1.0)
    acc = MomentAccumulator(1, order)
    acc.update_batch(*frame([2.0], 4.0))
    acc.update_batch(*frame([1.0], 3.0))
    image = acc.finalize()
    # g = mean(joint) / (mean(bucket)*mean(ref)) = 5.5 / (3.5 * 1.5)
    assert image.g[0] == pytest.approx(5.5 / 5.25)
    assert image.n_samples == 2


# -- streaming passes over sample sets ---------------------------------------


@pytest.fixture(scope="module")
def small_run():
    mask = letter_a_mask()
    cfg = SpeckleConfig(i0=1.0, seed=101, n=mask.n)
    return mask, run_simulation(cfg, mask, 30_000)


def test_multi_order_matches_manual_accumulation(small_run):
    mask, samples = small_run
    order = MomentOrder(mu=0.618, nu=0.5)
    (image,) = multi_order_pass(samples, [order], shard_size=1024)
    manual = MomentAccumulator(mask.n, order)
    for _, refs, buckets in samples.iter_batches():
        manual.update_batch(refs, buckets)
    expected = manual.finalize(mask.width, mask.height)
    np.testing.assert_allclose(image.joint_mean, expected.joint_mean, rtol=1e-12)
    np.testing.assert_allclose(image.g, expected.g, rtol=1e-12)


def test_worker_count_bitwise_identical(small_run):
    _, samples = small_run
    orders = [MomentOrder(mu, 0.5) for mu in (-1.414, 0.618)]
    one = multi_order_pass(samples, orders, workers=1)
    four = multi_order_pass(samples, orders, workers=4)
    for a, b in zip(one, four):
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.joint_mean, b.joint_mean)
        assert a.bucket_mean == b.bucket_mean


def test_empty_orders_rejected(small_run):
    _, samples = small_run
    with pytest.raises(ValueError):
        multi_order_pass(samples, [])


def test_bucket_moment_estimator_matches_closed_form(small_run):
    # <I_B^mu> for mu in {-1, 0.5, 2} at m=20
    _, samples = small_run
    for mu in (-1.0, 0.5, 2.0):
        (image,) = multi_order_pass(samples, [MomentOrder(mu, 0.5)])
        expected = moment_background(20, mu, 0.0)
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
    (image,) = multi_order_pass(samples, [MomentOrder(1.414, 0.5)], pair_shift=1)
    z = (image.g - 1.0) / image.g_se()
    assert np.abs(z).max() < 5.0


def test_signal_moments_match_closed_forms(small_run):
    mask, samples = small_run
    classes = classify_units(mask)
    (image,) = multi_order_pass(samples, [MomentOrder(-0.618, 0.5)])
    se = image.joint_se()
    for idx in classes.one_units[:5]:
        expected = moment_signal(20, -0.618, 0.5)
        assert abs(image.joint_mean[idx] - expected) < 5 * se[idx]
