import math

import numpy as np
import pytest
from scipy import stats

from fracgi import speckle
from fracgi.objects import ObjectMask, letter_a_mask
from fracgi.speckle import SampleSet, SpeckleConfig, _intensity_block
from fracgi.theory import bucket_pdf_general

from conftest import all_buckets

GAMMA_3_2 = 0.886226925452758  # sqrt(pi)/2, half-integer Gamma identity


def config(n=16, i0=1.0, seed=42):
    return SpeckleConfig(i0=i0, seed=seed, n=n)


def one_frame(cfg, j):
    """Reference intensities of frame j alone."""
    return _intensity_block(cfg, j, 1)[0]


def windows(samples, start, stop, width):
    """The batches of iter_batches over [start, stop) in windows of
    ``width`` frames, each window starting mid-stream at its own frame."""
    for lo in range(start, stop, width):
        yield from samples.iter_batches(start=lo, stop=min(lo + width, stop))


# -- determinism -------------------------------------------------------------


def test_frame_determinism_bitwise():
    cfg = config()
    a = one_frame(cfg, 123)
    b = one_frame(cfg, 123)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, one_frame(cfg, 124))
    assert not np.array_equal(a, one_frame(config(seed=43), 123))


def test_batches_match_single_frames():
    cfg = config(n=9)
    mask = ObjectMask(width=3, height=3, units=np.linspace(0, 1, 9))
    samples = SampleSet(cfg, mask, 50)
    collected = {}
    for first, refs, buckets in windows(samples, 0, 50, 7):
        for row in range(refs.shape[0]):
            collected[first + row] = (refs[row].copy(), buckets[row])
    for j in (0, 13, 49):
        assert np.array_equal(collected[j][0], one_frame(cfg, j))
        expected = math.fsum(collected[j][0] * mask.units)
        assert collected[j][1] == pytest.approx(expected, rel=1e-14, abs=0)


def test_batch_size_does_not_change_results():
    # buckets drawn in windows of 1 or 3 frames equal those of whole
    # batches (a null-pairing pass draws one-frame windows), also where a
    # batch holds 2048 or 64 frames
    wide = np.random.default_rng(3).random(4096)
    for units, n_frames in (
        (np.array([1, 0, 0.5, 1, 0.0]), 40),
        (letter_a_mask().units, 2048 + 5),
        (wide, 64 + 5),
    ):
        mask = ObjectMask(width=units.size, height=1, units=units)
        samples = SampleSet(config(n=units.size), mask, n_frames)
        for width in (1, 3):
            b_small = np.concatenate([b for _, _, b in windows(samples, 0, n_frames, width)])
            assert np.array_equal(b_small, all_buckets(samples))


# -- distribution oracles ----------------------------------------------------


def test_sample_mean_matches_exponential_mean():
    # law of large numbers: 4 standard errors at N=1e6
    cfg = config(n=1_000_000, i0=1.0, seed=11)
    draws = one_frame(cfg, 0)
    se = 1.0 / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.0) < 4 * se


def test_fractional_moment_of_reference():
    cfg = config(n=1_000_000, i0=1.0, seed=12)
    powered = one_frame(cfg, 0) ** 0.5
    se = powered.std() / math.sqrt(powered.size)
    assert abs(powered.mean() - GAMMA_3_2) < 4 * se


def test_per_unit_variance():
    cfg = config(n=200_000, i0=2.5, seed=13)
    draws = one_frame(cfg, 0)
    # exponential variance = i0^2; SE of the variance estimate ~ i0^2*sqrt(8/N)
    est = draws.var()
    se = 2.5**2 * math.sqrt(8.0 / draws.size)
    assert abs(est - 2.5**2) < 5 * se


def test_all_draws_positive():
    cfg = config(n=100_000, seed=3)
    assert one_frame(cfg, 7).min() > 0


@pytest.mark.parametrize("m", [2, 5])
def test_bucket_histogram_ks_against_erlang(m):
    mask = ObjectMask(width=m, height=1, units=np.ones(m))
    cfg = config(n=m, seed=21 + m)
    samples = SampleSet(cfg, mask, 100_000)
    model = bucket_pdf_general(mask, 1.0)
    result = stats.kstest(all_buckets(samples), lambda x: model.cdf(x))
    assert result.pvalue > 1e-3


def test_bucket_lag1_autocorrelation():
    mask = letter_a_mask()
    cfg = config(n=mask.n, seed=5)
    buckets = all_buckets(SampleSet(cfg, mask, 100_000))
    centered = buckets - buckets.mean()
    rho = (centered[:-1] * centered[1:]).mean() / centered.var()
    assert abs(rho) < 5.0 / math.sqrt(buckets.size)


# -- bucket signal -----------------------------------------------------------


def test_bucket_examples():
    def draw(units):
        mask = ObjectMask(width=2, height=1, units=np.array(units))
        ((_, refs, buckets),) = SampleSet(config(n=2), mask, 5).iter_batches()
        return refs, buckets

    refs, b = draw([1.0, 0.0])
    assert np.array_equal(b, refs[:, 0])
    _, b = draw([0.0, 0.0])
    assert np.array_equal(b, np.zeros(5))
    refs, b = draw([0.5, 0.25])
    np.testing.assert_allclose(b, 0.5 * refs[:, 0] + 0.25 * refs[:, 1], rtol=1e-15)


def test_bucket_partial_sum_bound():
    # I_B >= t_i * I_i for every unit (support constraint of the joint law)
    mask = ObjectMask(width=6, height=1, units=np.array([0.1, 0.9, 1.0, 0.0, 0.5, 0.3]))
    cfg = config(n=6, seed=9)
    for _, refs, buckets in SampleSet(cfg, mask, 200).iter_batches():
        slack = buckets[:, None] - mask.units * refs
        assert np.all(slack.min(axis=1) > -1e-12 * buckets)


def test_mean_bucket_matches_weighted_sum():
    mask = ObjectMask(width=3, height=1, units=np.array([0.2, 0.5, 1.0]))
    cfg = config(n=3, i0=2.0, seed=17)
    buckets = all_buckets(SampleSet(cfg, mask, 200_000))
    expected = 2.0 * mask.units.sum()
    se = buckets.std() / math.sqrt(buckets.size)
    assert abs(buckets.mean() - expected) < 5 * se


# -- sample-set contracts ----------------------------------------------------


def test_single_frame_run():
    mask = letter_a_mask()
    samples = SampleSet(config(n=mask.n), mask, 1)
    batches = list(samples.iter_batches())
    assert len(batches) == 1
    first, refs, buckets = batches[0]
    assert first == 0
    assert refs.shape == (1, mask.n) and buckets.shape == (1,)


@pytest.mark.parametrize("n,frames", [
    (1, 2048), (49, 2048), (128, 2048), (129, 1024), (4096, 64), (2**18, 1), (2**19, 1),
])
def test_batch_size_rule(n, frames):
    # the largest power of two <= 2^18 / n frames, capped at 2048, at least 1
    mask = ObjectMask(width=n, height=1, units=np.ones(n))
    samples = SampleSet(config(n=n), mask, 2 * frames + 1)
    assert samples.batch_size == frames
    assert [refs.shape[0] for _, refs, _ in samples.iter_batches()] == [frames, frames, 1]


def test_invalid_counts():
    mask = letter_a_mask()
    with pytest.raises(ValueError):
        SampleSet(config(n=mask.n), mask, 0)
    with pytest.raises(ValueError):
        SampleSet(config(n=3), mask, 10)  # n mismatch
    with pytest.raises(ValueError):
        SpeckleConfig(i0=0.0, seed=1, n=4)


@pytest.mark.parametrize("seed", [2.5, 3.0, np.float64(3.0), True, np.True_, "7", -1, 2**64])
def test_seed_must_be_a_64bit_unsigned_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        SpeckleConfig(i0=1.0, seed=seed, n=4)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint64(2**64 - 1), 2**64 - 1])
def test_seed_stored_as_python_int(seed):
    cfg = SpeckleConfig(i0=1.0, seed=seed, n=4)
    assert type(cfg.seed) is int and cfg.seed == int(seed)
    assert np.array_equal(one_frame(cfg, 3), one_frame(config(n=4, seed=int(seed)), 3))


def test_reiteration_is_identical():
    mask = letter_a_mask()
    samples = SampleSet(config(n=mask.n, seed=8), mask, 64)
    first = np.concatenate([b for _, _, b in windows(samples, 0, 64, 10)])
    second = np.concatenate([b for _, _, b in windows(samples, 0, 64, 10)])
    assert np.array_equal(first, second)


@pytest.mark.parametrize("n,n_frames", [(49, 2 * 2048 + 5), (4096, 3 * 64 + 1), (7, 3)])
def test_buffered_batches_match_fresh_ones(n, n_frames):
    # the short last batch included; stop - start < batch_size needs only
    # that many rows of buffer
    units = np.random.default_rng(n).random(n)
    samples = SampleSet(config(n=n, seed=4), ObjectMask(width=n, height=1, units=units), n_frames)
    buf = np.empty((min(samples.batch_size, n_frames), n))
    fresh = list(samples.iter_batches())
    assert len(fresh) == -(-n_frames // samples.batch_size)
    for (first, refs, buckets), (first_b, refs_b, buckets_b) in zip(
        fresh, samples.iter_batches(out=buf), strict=True
    ):
        assert first == first_b
        assert np.array_equal(refs, refs_b) and np.array_equal(buckets, buckets_b)
        assert np.shares_memory(refs_b, buf)
    # fresh blocks are independent arrays, so a list of them stays valid
    for i, (_, refs, _) in enumerate(fresh):
        assert not any(np.shares_memory(refs, other) for _, other, _ in fresh[i + 1 :])


# -- stream layout -----------------------------------------------------------


def stream_frames(cfg, start, count, jumps=()):
    """Frames [start, start + count) cut from one contiguous draw of
    Generator(PCG64(seed)), read after advancing the generator by each of
    ``jumps`` in turn (stream position sum(jumps))."""
    bitgen = np.random.PCG64(cfg.seed)
    for jump in jumps:
        bitgen.advance(jump)
    skip = start * cfg.n - sum(jumps)
    assert skip >= 0
    u = np.random.Generator(bitgen).random(skip + count * cfg.n)
    u = u[skip:].reshape(count, cfg.n)
    return -cfg.i0 * np.log(1.0 - u)


def test_transform_within_one_ulp_of_log1p(monkeypatch):
    # log1p(-u) is an independent oracle for the sampler's -i0*log(1-u):
    # 10^6 draws, with the edges u = 0 and u = 1 - 2^-53 put into the stream,
    # into a new array and into a larger reused buffer; u = 0 gives 0
    edges = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    real_generator = np.random.Generator

    class EdgedGenerator:
        def __init__(self, bitgen):
            self.generator = real_generator(bitgen)

        def random(self, size=None, out=None):
            u = self.generator.random(size, out=out)
            u.flat[: edges.size] = edges
            return u

    cfg = config(n=1000, i0=1.5, seed=9)
    u = EdgedGenerator(np.random.PCG64(cfg.seed)).random((1000, cfg.n))
    expected = -cfg.i0 * np.log1p(-u)
    monkeypatch.setattr(speckle, "Generator", EdgedGenerator)
    buf = np.full((1024, cfg.n), np.nan)
    for sampled in (_intensity_block(cfg, 0, 1000), _intensity_block(cfg, 0, 1000, buf)):
        assert sampled.shape == expected.shape
        assert sampled.flat[0] == 0
        np.testing.assert_array_max_ulp(sampled, expected, maxulp=1)
    assert np.shares_memory(sampled, buf) and np.isnan(buf[1000:]).all()


def batch_frames(cfg, start, count, width):
    mask = ObjectMask(width=cfg.n, height=1, units=np.ones(cfg.n))
    samples = SampleSet(cfg, mask, start + count)
    batches = list(windows(samples, start, start + count, width))
    assert [first for first, _, _ in batches] == list(range(start, start + count, width))
    return np.concatenate([refs for _, refs, _ in batches])


@pytest.mark.parametrize("n", [1, 3, 7, 49, 4096])
@pytest.mark.parametrize("start,count", [(0, 5), (3, 7), (11, 1), (13, 9)])
def test_frames_are_one_pcg64_stream(n, start, count):
    cfg = config(n=n, i0=1.5, seed=2**64 - 5)
    expected = stream_frames(cfg, start, count)
    assert np.array_equal(batch_frames(cfg, start, count, width=3), expected)
    for row in range(count):
        assert np.array_equal(one_frame(cfg, start + row), expected[row])


@pytest.mark.parametrize("n", [1, 7, 49])
def test_stream_layout_past_64bit_counter(n):
    # start*n is about 2**66, past any 64-bit position: the reference gets
    # there in two jumps, 2**64 and then the rest, so the sampler's single
    # 128-bit jump is checked against a different path to the same state
    jumps = (2**64, 3 * 2**64 - 2)
    start, count = sum(jumps) // n + 1, 9
    assert start * n > 2**64
    cfg = config(n=n, seed=77)
    expected = stream_frames(cfg, start, count, jumps=jumps)
    assert np.array_equal(batch_frames(cfg, start, count, width=4), expected)
    assert np.array_equal(one_frame(cfg, start + count - 1), expected[-1])
