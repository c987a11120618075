import math

import numpy as np
import pytest

from fracgi.metrics import (
    CLASS_COLUMNS,
    MetricsError,
    class_average_matrix,
    image_metrics,
)
from fracgi.moments import GhostImage, MomentOrder, multi_order_pass
from fracgi.objects import ObjectMask, classify_units, letter_a_mask
from fracgi.speckle import SampleSet, SpeckleConfig

from conftest import all_buckets


def make_image(joint, joint2=None, n_samples=1000):
    joint = np.asarray(joint, dtype=float)
    joint2 = np.asarray(joint2 if joint2 is not None else joint**2 * 1.5, dtype=float)
    return GhostImage(
        width=joint.size,
        height=1,
        mu=1.0,
        nu=1.0,
        n_samples=n_samples,
        g=np.ones_like(joint),
        joint_mean=joint,
        joint2_mean=joint2,
        ref_mean=np.ones_like(joint),
        bucket_mean=1.0,
        bucket2_mean=1.5,
    )


def classes_for(values):
    return classify_units(ObjectMask(width=len(values), height=1, units=np.array(values, float)))


# -- visibility --------------------------------------------------------------


def test_constant_image_zero_visibility():
    image = make_image([2.0, 2.0])
    assert image_metrics(image, classes_for([1.0, 0.0])).v_empirical == 0.0


def test_visibility_three_to_one():
    image = make_image([3.0, 1.0])
    assert image_metrics(image, classes_for([1.0, 0.0])).v_empirical == pytest.approx(0.5)


def test_visibility_empty_class():
    with pytest.raises(MetricsError):
        image_metrics(make_image([1.0, 2.0]), classes_for([1.0, 1.0]))
    with pytest.raises(MetricsError):
        image_metrics(make_image([1.0, 2.0]), classes_for([0.0, 0.0]))


# -- peak SNR ----------------------------------------------------------------


def test_peak_snr_sqrt_n_scaling():
    a = make_image([3.0, 1.0], joint2=[10.0, 2.0], n_samples=1000)
    b = make_image([3.0, 1.0], joint2=[10.0, 2.0], n_samples=2000)
    ca = classes_for([1.0, 0.0])
    assert image_metrics(b, ca).rp_empirical == pytest.approx(
        math.sqrt(2.0) * image_metrics(a, ca).rp_empirical
    )


def test_peak_snr_zero_contrast():
    image = make_image([2.0, 2.0], joint2=[6.0, 6.0])
    assert image_metrics(image, classes_for([1.0, 0.0])).rp_empirical == 0.0


def test_peak_snr_degenerate_variance():
    image = make_image([3.0, 1.0], joint2=[9.0, 1.0])  # second moment == square
    with pytest.raises(MetricsError):
        image_metrics(image, classes_for([1.0, 0.0]))


def test_image_metrics_excludes_fractional_pixels():
    # the fractional pixel's raw moment 2.0 enters neither class mean
    image = make_image([3.0, 1.0, 2.0])
    m = image_metrics(image, classes_for([1.0, 0.0, 0.5]))
    assert m.mean_signal == pytest.approx(3.0)
    assert m.mean_background == pytest.approx(1.0)


# -- class-pooled streaming stats ---------------------------------------------


@pytest.fixture(scope="module")
def run20():
    mask = letter_a_mask()
    cfg = SpeckleConfig(i0=1.0, seed=202, n=mask.n)
    return mask, classify_units(mask), SampleSet(cfg, mask, 20_000)


def class_pass(samples, classes, orders, **kwargs):
    """Class-pooled statistics: one column per class, signal then background."""
    return multi_order_pass(samples, orders, groups=class_average_matrix(classes), **kwargs)


def test_class_average_matrix_columns():
    classes = classes_for([1.0, 0.0, 0.5, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(
        class_average_matrix(classes),
        [[0.5, 0], [0, 1 / 3], [0, 0], [0.5, 0], [0, 1 / 3], [0, 1 / 3]],
    )
    assert CLASS_COLUMNS == ("signal", "background")


def test_class_stats_match_accumulator_means(run20):
    mask, classes, samples = run20
    order = MomentOrder(0.618, 0.5)
    (stats,) = class_pass(samples, classes, [order])
    (image,) = multi_order_pass(samples, [order])
    assert stats.joint_mean[0] == pytest.approx(
        image.joint_mean[classes.one_units].mean(), rel=1e-12
    )
    assert stats.joint_mean[1] == pytest.approx(
        image.joint_mean[classes.zero_units].mean(), rel=1e-12
    )
    assert stats.bucket_mean == pytest.approx(image.bucket_mean, rel=1e-12)


def test_class_stats_multi_shares_pass(run20):
    _, classes, samples = run20
    orders = [MomentOrder(0.618, 0.5), MomentOrder(-1.414, 0.5)]
    multi = class_pass(samples, classes, orders)
    for order, stats in zip(orders, multi):
        (single,) = class_pass(samples, classes, [order])
        np.testing.assert_array_equal(stats.joint_mean, single.joint_mean)
        np.testing.assert_array_equal(stats.joint_se(), single.joint_se())


@pytest.mark.parametrize("shift, workers", [(0, 1), (1, 1), (1, 2)])
def test_class_columns_match_hand_reduction(run20, shift, workers):
    """Each column is the frame average of y_f = b_{f+shift}^mu *
    mean_{i in class} r_{f,i}^nu, with standard error std(y_f)/sqrt(N);
    recomputed here from the raw batches with plain numpy, independently of
    the accumulator. Shift 1 is null pairing. N = 2 is one batch; at
    N = 20000 the last batch is partial and ends the last shard, so in
    both frame N-1 meets frame 0."""
    mask, classes, run = run20
    order = MomentOrder(-1.414, 0.5)
    for n in (2, run.n_frames):
        samples = SampleSet(run.config, mask, n)
        (stats,) = class_pass(samples, classes, [order], null_pairing=shift == 1,
                              workers=workers)
        refs = np.concatenate([r for _, r, _ in samples.iter_batches()])
        bucket_pow = np.roll(all_buckets(samples), -shift) ** order.mu
        for col, units in enumerate((classes.one_units, classes.zero_units)):
            z = (refs[:, units] ** order.nu).mean(axis=1)
            y = bucket_pow * z
            assert stats.joint_mean[col] == pytest.approx(y.mean(), rel=1e-12)
            assert stats.joint_se()[col] == pytest.approx(y.std() / math.sqrt(n), rel=1e-12)
            assert stats.ref_mean[col] == pytest.approx(z.mean(), rel=1e-12)
        assert stats.bucket_mean == pytest.approx(bucket_pow.mean(), rel=1e-12)


def test_null_pairing_kills_contrast(run20):
    _, classes, samples = run20
    (stats,) = class_pass(samples, classes, [MomentOrder(1.414, 0.5)], null_pairing=True)
    assert np.all(np.abs(stats.g - 1.0) < 5 * stats.g_se())


def test_paired_run_shows_contrast(run20):
    _, classes, samples = run20
    (stats,) = class_pass(samples, classes, [MomentOrder(1.414, 0.5)])
    assert stats.g[0] - 1.0 > 5 * stats.g_se()[0]


def test_empty_mask_classes_rejected(run20):
    _, _, samples = run20
    gray = classify_units(
        ObjectMask(width=49, height=1, units=np.full(49, 0.5))
    )
    with pytest.raises(MetricsError):
        class_pass(samples, gray, [MomentOrder(1.0, 1.0)])
    for values in ([1.0, 1.0], [0.0, 0.0]):
        with pytest.raises(MetricsError):
            class_average_matrix(classes_for(values))


# -- convergence to the closed forms ------------------------------------------


@pytest.fixture(scope="module")
def convergence_runs():
    from fracgi.theory import predict

    mask = letter_a_mask()
    classes = classify_units(mask)
    order = MomentOrder(1.0, 1.0)
    out = {}
    for n in (20_000, 200_000):
        samples = SampleSet(SpeckleConfig(i0=1.0, seed=303, n=mask.n), mask, n)
        (image,) = multi_order_pass(samples, [order])
        (stats,) = class_pass(samples, classes, [order])
        out[n] = (image, stats)
    return classes, out, predict(20, 1, 1, 1).visibility, predict


def test_empirical_visibility_converges(convergence_runs):
    # each N's deviation is gated on that N's own standard error, and the
    # error shrinks as 1/sqrt(N); comparing the two deviations directly
    # would be a coin flip, since the 20k run is a prefix of the 200k run
    classes, runs, v_true, _ = convergence_runs
    se_v = {}
    for n, (image, stats) in runs.items():
        # within 5 pooled standard errors (delta method on V)
        s, b = stats.joint_mean
        ds, db = stats.joint_se()
        se_v[n] = 2.0 * math.sqrt((b * ds) ** 2 + (s * db) ** 2) / (s + b) ** 2
        assert abs(image_metrics(image, classes).v_empirical - v_true) < 5 * se_v[n]
    assert se_v[20_000] / se_v[200_000] == pytest.approx(math.sqrt(10), rel=0.10)


def test_empirical_peak_snr_magnitude(convergence_runs):
    classes, runs, _, predict = convergence_runs
    for n, (image, _) in runs.items():
        expected = predict(20, 1, 1, n).peak_snr
        assert image_metrics(image, classes).rp_empirical == pytest.approx(expected, rel=0.10)
