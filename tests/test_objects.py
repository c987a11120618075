import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracgi.objects import (
    MaskError,
    ObjectMask,
    block_mask,
    classify_units,
    letter_a_mask,
    load_object,
    save_object_csv,
)


def make_mask(values, width=None):
    values = np.asarray(values, dtype=float)
    width = width or values.size
    return ObjectMask(width=width, height=values.size // width, units=values)


# -- construction invariants -------------------------------------------------


def test_rejects_out_of_range():
    with pytest.raises(MaskError):
        make_mask([0.5, 1.2])
    with pytest.raises(MaskError):
        make_mask([-0.1, 0.5])


def test_rejects_shape_mismatch():
    with pytest.raises(MaskError):
        ObjectMask(width=3, height=2, units=np.zeros(5))


def test_units_immutable():
    mask = make_mask([0.0, 1.0])
    with pytest.raises(ValueError):
        mask.units[0] = 0.5


# -- loading -----------------------------------------------------------------


def test_load_csv_semicolon_rows(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0,1;1,0")
    mask = load_object(p)
    assert (mask.width, mask.height) == (2, 2)
    assert mask.units.tolist() == [0.0, 1.0, 1.0, 0.0]


def test_load_pgm_8bit_endpoint_scaling(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 1\n255\n" + bytes([255, 0]))
    mask = load_object(p)
    assert mask.units.tolist() == [1.0, 0.0]


def test_load_pgm_threshold(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 1\n255\n" + bytes([128, 127]))
    mask = load_object(p, binarize_threshold=0.5)
    # 128/255 = 0.502 >= 0.5 -> 1; 127/255 = 0.498 -> 0
    assert mask.units.tolist() == [1.0, 0.0]


def test_load_pgm_16bit_big_endian(tmp_path):
    p = tmp_path / "m.pgm"
    samples = np.array([65535, 0, 32768], dtype=">u2")
    p.write_bytes(b"P5\n3 1\n65535\n" + samples.tobytes())
    mask = load_object(p)
    assert mask.units[0] == 1.0
    assert mask.units[1] == 0.0
    assert mask.units[2] == pytest.approx(32768 / 65535)


def test_load_pgm_with_comments(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n# size\n2 1\n# depth\n255\n" + bytes([10, 20]))
    mask = load_object(p)
    assert mask.n == 2


def test_load_errors(tmp_path):
    with pytest.raises(MaskError):
        load_object(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(MaskError):
        load_object(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,2.0")
    with pytest.raises(MaskError):
        load_object(bad)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n" + bytes([1, 2]))
    with pytest.raises(MaskError):
        load_object(short)


# -- classification ----------------------------------------------------------


def test_classify_binary():
    classes = classify_units(make_mask([1, 0, 1, 1]))
    assert classes.m == 3
    assert classes.fractional_units.size == 0


def test_classify_degenerate_all_zero():
    classes = classify_units(make_mask([0, 0]))
    assert classes.m == 0
    assert classes.one_units.size == 0


def test_classify_fractional_m_undefined():
    classes = classify_units(make_mask([0.5, 1.0]))
    assert classes.fractional_units.tolist() == [0]
    assert classes.m is None


def test_classify_partition():
    mask = make_mask([0.0, 0.25, 0.5, 0.75, 1.0])
    classes = classify_units(mask)
    merged = np.concatenate(
        [classes.zero_units, classes.one_units, classes.fractional_units]
    )
    assert sorted(merged.tolist()) == list(range(5))
    assert classes.fractional_units.tolist() == [1, 2, 3]


# -- round trips -------------------------------------------------------------


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40
    )
)
def test_csv_round_trip_exact(tmp_path_factory, values):
    mask = make_mask(values)
    path = tmp_path_factory.mktemp("csv") / "mask.csv"
    save_object_csv(mask, path)
    back = load_object(path)
    assert np.array_equal(back.units, mask.units)
    assert (back.width, back.height) == (mask.width, mask.height)


@given(st.integers(min_value=0, max_value=255), st.floats(min_value=0.05, max_value=0.95))
def test_threshold_load_gives_binary(tmp_path_factory, pixel, threshold):
    path = tmp_path_factory.mktemp("pgm") / "m.pgm"
    path.write_bytes(b"P5\n1 1\n255\n" + bytes([pixel]))
    mask = load_object(path, binarize_threshold=threshold)
    classes = classify_units(mask)
    assert classes.fractional_units.size == 0


# -- built-in masks ----------------------------------------------------------


def test_letter_a_mask():
    mask = letter_a_mask()
    classes = classify_units(mask)
    assert (mask.width, mask.height) == (7, 7)
    assert classes.m == 20
    assert classes.fractional_units.size == 0


@pytest.mark.parametrize("m", [1, 5, 20, 33])
def test_block_mask_exact_m(m):
    classes = classify_units(block_mask(m))
    assert classes.m == m
    assert classes.zero_units.size >= m
