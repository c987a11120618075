"""Golden outputs of the CI console commands, run in process.

``collect(workdir, workers)`` runs each command of the CI console job
through ``fracgi.cli.main``, every `simulate` and `validate` with
``--workers`` appended, and returns its outputs as plain JSON values: the
`simulate` report fields and sidecar ``g_min``/``g_max``, the `validate`
lines with each image the pass returned, the `predict` JSON and the README
sweep's rows. Every number is kept at full precision; ``mismatches``
compares text, flags and counts exactly and floats to ``REL_TOL``.

    PYTHONPATH=src python tests/golden.py

rewrites ``tests/golden.json`` from a one-worker run. A change that moves
outputs on purpose commits the rewrite; on one host its diff lists every
value that moved, moves below the tolerance included. The outputs do not
depend on the worker count, so every worker count is checked against it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")
REL_TOL = 1e-12

BLOB_CSV = "0,0.25,0.25,0\n0.25,1,1,0.25\n0.25,1,1,0.25\n0,0.5,0.5,0\n"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _wide_pgm() -> bytes:
    # CI's 64x64 mask, about 30 % ones
    ones = np.random.default_rng(1).random(4096) < 0.3
    return b"P5\n64 64\n255\n" + np.where(ones, 255, 0).astype(np.uint8).tobytes()


def _lines(text: str) -> list:
    """Each output line as [template, numbers]: the numbers it prints, and
    the line with each of them replaced by '#'."""
    return [[_NUMBER.sub("#", line), [float(x) for x in _NUMBER.findall(line)]]
            for line in text.splitlines()]


def _run(argv: list[str]) -> tuple[int, str, list]:
    """Exit code, stdout and the images of every pass of one command."""
    from fracgi import cli

    images = []
    real_pass = cli.moments.multi_order_pass

    def recording_pass(*args, **kwargs):
        result = real_pass(*args, **kwargs)
        images.extend(result)
        return result

    out = io.StringIO()
    cli.moments.multi_order_pass = recording_pass
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        cli.moments.multi_order_pass = real_pass
    return code, out.getvalue(), images


def _simulate(argv: list[str], out: Path) -> dict:
    code, stdout, _ = _run(["simulate", *argv, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    sidecars = {p.name: {k: v for k, v in json.loads(p.read_text()).items()
                         if k in ("g_min", "g_max")}
                for p in sorted(out.glob("*.pgm.json"))}
    return {"exit": code, "stdout": _lines(stdout), "report": report, "sidecars": sidecars}


def _validate(argv: list[str]) -> dict:
    code, stdout, images = _run(["validate", *argv])
    fields = ("g", "joint_mean", "joint2_mean", "ref_mean")
    return {
        "exit": code,
        "stdout": _lines(stdout),
        "images": [{**{f: getattr(im, f).tolist() for f in fields},
                    "bucket_mean": im.bucket_mean, "bucket2_mean": im.bucket2_mean}
                   for im in images],
    }


def _sweep(argv: list[str], out: Path) -> dict:
    code, _, _ = _run(["sweep", *argv, "--out", str(out)])
    with out.open(newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    cells = [[int(m), float(mu), float(nu), float(v) if v else None, float(rp) if rp else None,
              moment_ok, variance_ok] for m, mu, nu, v, rp, moment_ok, variance_ok in body]
    return {"exit": code, "header": header, "rows": cells}


def collect(workdir: Path, workers: int = 1) -> dict:
    """Outputs of the CI console commands, run in ``workdir``, each pass on
    ``workers`` threads."""
    workdir = Path(workdir)
    wide = workdir / "wide.pgm"
    wide.write_bytes(_wide_pgm())
    blob = workdir / "blob.csv"
    blob.write_text(BLOB_CSV)
    two = "--orders=-2.7183:0.5,0.618:0.5"
    code, stdout, _ = _run(["predict", "--m", "20", "--mu", "1", "--nu", "1"])

    def simulate(argv, out):
        return _simulate([*argv, "--workers", str(workers)], workdir / out)

    def validate(*argv):
        return _validate([*argv, "--workers", str(workers)])

    return {
        "validate paired": validate("--n-samples", "20000"),
        "validate null": validate("--null-pairing", "--n-samples", "20001"),
        "validate m5 null": validate("--m", "5", "--seed", "3", "--null-pairing",
                                     "--n-samples", "20000"),
        "simulate letter A": simulate(["--n-samples", "20000", "--seed", "7", two], "letter"),
        "simulate wide": simulate(["--object", str(wide), "--n-samples", "10000",
                                   "--seed", "7", two], "wide"),
        "simulate wide nu": simulate(["--object", str(wide), "--n-samples", "10000",
                                      "--seed", "7", "--orders=0.618:0.7,-1.414:0.5"], "nu"),
        "simulate blob": simulate(["--object", str(blob), "--n-samples", "50000", "--seed", "3",
                                   "--orders=-1.414:0.5,0.618:0.5,2.7183:0.5"], "gray"),
        "predict": {"exit": code, "json": json.loads(stdout)},
        "sweep README": _sweep(["--m", "20,30", "--mu=-3:3:0.1", "--nu", "0.1:3:0.1"],
                               workdir / "surfaces.csv"),
    }


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Every place where ``actual`` differs from ``expected``: in structure,
    text, flags or integers at all, in floats by more than REL_TOL."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for k in expected for m in mismatches(expected[k], actual[k], f"{path}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {expected!r} != {actual!r}"]


def _dump(value, indent: int = 0) -> str:
    # a list of lists or objects takes one line per item, any other list
    # one line: a diff then names each moved output line, sweep row or field
    pad = " " * (indent + 1)
    if isinstance(value, dict):
        items = [f"{pad}{json.dumps(k)}: {_dump(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}" if items else "{}"
    if isinstance(value, list) and value and all(isinstance(v, (dict, list)) for v in value):
        items = [pad + _dump(v, indent + 1) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    return json.dumps(value, allow_nan=False)


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        outputs = collect(Path(workdir))
    GOLDEN.write_text(_dump(outputs) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
