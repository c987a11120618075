import hashlib
import json

import numpy as np
import pytest

from fracgi.moments import GhostImage
from fracgi.objects import ObjectMask, letter_a_mask, mask_csv_text
from fracgi.reports import (
    SWEEP_HEADER,
    OrderResult,
    ReportSchemaError,
    ReportVersionError,
    RunReport,
    mask_digest,
    read_ghost_image,
    read_report,
    write_ghost_image,
    write_report,
    write_sweep_csv,
)

RP_REL_20_1_1 = 0.041848697531868616  # 1/sqrt(571), Gamma-recurrence simplification


def image_from(g, width=None, mu=1.0, nu=0.5):
    g = np.asarray(g, dtype=float)
    width = width or g.size
    return GhostImage(
        width=width,
        height=g.size // width,
        mu=mu,
        nu=nu,
        n_samples=1000,
        g=g,
        joint_mean=g.copy(),
        joint2_mean=g**2,
        ref_mean=np.ones_like(g),
        bucket_mean=1.0,
        bucket2_mean=1.0,
    )


def sample_report():
    return RunReport(
        mask_digest="abc123",
        i0=1.0,
        seed=7,
        n_samples=1000,
        orders=((1.0, 0.5), (-1.0, 0.5)),
        results=(
            OrderResult(
                mu=1.0, nu=0.5, v_empirical=0.01, rp_empirical=3.2,
                mean_signal=1.1, mean_background=1.0, v_analytic=0.011, rp_analytic=3.1,
            ),
            OrderResult(
                mu=-1.0, nu=0.5, v_empirical=None, rp_empirical=None,
                mean_signal=None, mean_background=None, v_analytic=None, rp_analytic=None,
            ),
        ),
    )


# -- ghost images ------------------------------------------------------------


def test_constant_image_midscale(tmp_path):
    path = tmp_path / "flat.pgm"
    write_ghost_image(image_from([1.5, 1.5, 1.5, 1.5], width=2), path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n65535\n")
    pixels = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
    assert (pixels == 32768).all()


def test_two_pixel_scaling_and_sidecar(tmp_path):
    path = tmp_path / "two.pgm"
    write_ghost_image(image_from([1.0, 1.05]), path)
    pixels = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    assert pixels.tolist() == [0, 65535]
    sidecar = json.loads(path.with_suffix(".pgm.json").read_text())
    assert sidecar["g_min"] == 1.0
    assert sidecar["g_max"] == 1.05


def test_pgm_samples_are_big_endian(tmp_path):
    path = tmp_path / "mid.pgm"
    write_ghost_image(image_from([0.0, 0.5, 1.0]), path)
    body = path.read_bytes().split(b"65535\n", 1)[1]
    assert body[2:4] == (32768).to_bytes(2, "big")


def test_ghost_image_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    g = 1.0 + 0.1 * rng.random(35)
    path = tmp_path / "img.pgm"
    write_ghost_image(image_from(g, width=7), path)
    back, sidecar = read_ghost_image(path)
    quantum = (sidecar["g_max"] - sidecar["g_min"]) / 65535
    assert np.abs(back.ravel() - g).max() <= quantum
    assert back.shape == (5, 7)


def test_ghost_image_deterministic_bytes(tmp_path):
    g = [1.0, 1.01, 1.02, 1.03]
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_ghost_image(image_from(g, width=2), a)
    write_ghost_image(image_from(g, width=2), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".pgm.json").read_bytes() == b.with_suffix(".pgm.json").read_bytes()


# -- sweep CSV ---------------------------------------------------------------


def test_sweep_header_only(tmp_path):
    path = tmp_path / "s.csv"
    write_sweep_csv([], path)
    assert path.read_text() == SWEEP_HEADER + "\n"


def test_sweep_row_serialization(tmp_path):
    path = tmp_path / "s.csv"
    write_sweep_csv([(20, 1.0, 1.0, 1 / 41, RP_REL_20_1_1, True, True)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,mu,nu,V,Rp_over_sqrtN,moment_finite,variance_finite"
    fields = lines[1].split(",")
    assert fields[0] == "20"
    assert float(fields[3]) == pytest.approx(1 / 41, rel=1e-15)
    assert float(fields[4]) == pytest.approx(RP_REL_20_1_1, rel=1e-15)
    assert fields[5] == "true" and fields[6] == "true"


def test_sweep_invalid_rows_have_empty_fields(tmp_path):
    path = tmp_path / "s.csv"
    write_sweep_csv([(2, -2.2, 0.1, None, None, False, False)], path)
    line = path.read_text().splitlines()[1]
    assert line == "2,-2.2000000000000002,0.10000000000000001,,,false,false"


# -- run reports -------------------------------------------------------------


def test_report_round_trip(tmp_path):
    report = sample_report()
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report


def test_report_bytes_deterministic_and_sorted(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(sample_report(), a)
    write_report(sample_report(), b)
    assert a.read_bytes() == b.read_bytes()
    keys = list(json.loads(a.read_text()))
    assert keys == sorted(keys)


def test_report_version_rejected(tmp_path):
    path = tmp_path / "report.json"
    write_report(sample_report(), path)
    payload = json.loads(path.read_text())
    # version "1" reports came from the per-frame substream sampler
    payload["format_version"] = "1"
    path.write_text(json.dumps(payload))
    with pytest.raises(ReportVersionError):
        read_report(path)


def test_report_records_rng_layout(tmp_path):
    path = tmp_path / "report.json"
    write_report(sample_report(), path)
    payload = json.loads(path.read_text())
    assert payload["rng_layout"] == "pcg64-stream"
    assert payload["format_version"] == "2"
    # reports of the earlier samplers hold other values for the same seed
    for old_layout in ("philox-stream", "philox-substreams"):
        payload["rng_layout"] = old_layout
        path.write_text(json.dumps(payload))
        with pytest.raises(ReportSchemaError) as err:
            read_report(path)
        assert "rng_layout" in str(err.value)
    del payload["rng_layout"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ReportSchemaError) as err:
        read_report(path)
    assert "rng_layout" in str(err.value)


def test_report_missing_key_named(tmp_path):
    path = tmp_path / "report.json"
    write_report(sample_report(), path)
    payload = json.loads(path.read_text())
    del payload["mask_digest"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ReportSchemaError) as err:
        read_report(path)
    assert "mask_digest" in str(err.value)


def test_report_malformed_json(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("{not json")
    with pytest.raises(Exception):
        read_report(path)


@pytest.mark.parametrize("key, value", [
    ("orders", 5),
    ("results", 5),
    ("orders", "1:0.5"),
    ("orders", [[1.0, 0.5], [1.0]]),
    ("orders", [5, [1.0, 0.5]]),
    ("results", [5]),
])
def test_report_malformed_field_is_a_schema_error(tmp_path, key, value):
    path = tmp_path / "report.json"
    write_report(sample_report(), path)
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ReportSchemaError):
        read_report(path)


def test_mask_digest_stable():
    assert mask_digest(letter_a_mask()) == mask_digest(letter_a_mask())
    assert len(mask_digest(letter_a_mask())) == 64


@pytest.mark.parametrize("mask", [
    letter_a_mask(),
    ObjectMask(width=3, height=2, units=np.array([0.1, 1 / 3, 0.0, 1.0, 0.25, 2**-40])),
])
def test_mask_digest_hashes_the_saved_csv(tmp_path, mask):
    (tmp_path / "mask.csv").write_text(mask_csv_text(mask), encoding="utf-8")
    assert mask_digest(mask) == hashlib.sha256((tmp_path / "mask.csv").read_bytes()).hexdigest()
