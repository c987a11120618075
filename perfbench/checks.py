"""Output checks of one workload pass.

Every check yields operations: ``(name, outcome)`` with outcome ``"ok"``,
``"error"`` (the package refused: a raised ``DomainError`` or
``QuadratureError``) or ``"wrong"`` (an output is missing, unreadable,
differs from its reference, or a command exited nonzero). Both non-ok outcomes count as failed operations; only ``"wrong"``
makes the run incorrect. Nothing is skipped: an operation whose output is
absent fails.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import oracle
from workloads import DEFAULT_ORDERS, N_ORDERS

# the package's documented refusals; any other exception is a wrong output
REFUSALS = ("DomainError", "QuadratureError")
ORDERS = [tuple(float(v) for v in pair.split(":")) for pair in DEFAULT_ORDERS.split(",")]
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
MOMENT_RTOL = 1e-6
SWEEP_SPOT_STRIDE = 37  # about 100 of the 3600 sweep rows are recomputed


def outputs_digest(pass_dir: Path) -> str:
    """Digest of everything a pass produced: output files, stdout and the
    oracle's results, in a fixed order."""
    h = hashlib.sha256()
    files = sorted((pass_dir / "out").rglob("*")) + [pass_dir / "stdout.txt",
                                                     pass_dir / "results.json"]
    for path in files:
        if path.is_file():
            h.update(path.relative_to(pass_dir).as_posix().encode() + b"\0")
            # printed output paths name the pass directory
            h.update(path.read_bytes().replace(str(pass_dir).encode(), b"<pass>"))
    return h.hexdigest()


def _close(a, b, rtol) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def check_simulate(spec: dict, mask, exit_code, sign_law: bool):
    """Six images and report.json of ``fracgi simulate``."""
    from fracgi import classify_units, reports, theory

    names = [f"ghost_{i:02d}_mu{mu:g}_nu{nu:g}.pgm" for i, (mu, nu) in enumerate(ORDERS, 1)]
    if exit_code != 0:
        return [(name, "wrong") for name in names] + [("report.json", "wrong")]
    out = Path(spec["out"])
    ops = []
    for name, (mu, nu) in zip(names, ORDERS):
        try:
            g, side = reports.read_ghost_image(out / name)
            ok = (
                g.shape == (mask.height, mask.width)
                and (side["mu"], side["nu"], side["n_samples"]) == (mu, nu, spec["frames"])
                and bool(np.all(np.isfinite(g)))
                and side["g_min"] <= side["g_max"]
            )
        except (OSError, ValueError, KeyError):
            ok = False
        ops.append((name, "ok" if ok else "wrong"))

    classes = classify_units(mask)
    try:
        report = reports.read_report(out / "report.json")
        ok = (
            report.seed == spec["seed"]
            and report.n_samples == spec["frames"]
            and report.i0 == 1.0
            and [tuple(o) for o in report.orders] == ORDERS
            and report.mask_digest == reports.mask_digest(mask)
            and len(report.results) == N_ORDERS
        )
        for r, (mu, nu) in zip(report.results, ORDERS):
            pred = theory.predict(classes.m, mu, nu, spec["frames"], 1.0)
            ok = ok and (r.mu, r.nu) == (mu, nu)
            ok = ok and 0.0 <= r.v_empirical <= 1.0 and math.isfinite(r.rp_empirical)
            ok = ok and _close(r.v_analytic, pred.visibility, 1e-12)
            ok = ok and _close(r.rp_analytic, pred.peak_snr, 1e-12)
            if sign_law:
                # positive bucket orders give positive images, negative ones negative
                ok = ok and (r.mean_signal - r.mean_background) * mu > 0
    except (OSError, ValueError, TypeError):
        ok = False
    ops.append(("report.json", "ok" if ok else "wrong"))
    return ops


def check_oracle(pass_dir: Path, exit_code):
    """Sweep table, predict grid, bucket law and grayscale moments."""
    from fracgi import reports, theory

    results_path = pass_dir / "results.json"
    if not results_path.is_file():
        n = (2 + len(oracle.PREDICT_M) * len(oracle.SIX_MU)
             + len(oracle.MOMENT_ORDERS) * len(oracle.MOMENT_LEVELS))
        return [("oracle", "wrong")] * n
    results = json.loads(results_path.read_text())
    return (
        [("sweep", _sweep_outcome(theory, reports, pass_dir / "out" / "surfaces.csv", exit_code))]
        + _predict_ops(theory, results["predict"])
        + [("bucket law", _bucket_law_outcome(results["bucket_law"]))]
        + _moment_ops(results["moment_general"], oracle.MOMENT_ORDERS)
        + defect_probe(results)
    )


def defect_probe(results) -> list:
    """Operations of the ``DEFECT_ORDERS`` probe, which only traced
    theory-oracle runs make. A documented refusal there is the known
    defect, which the traced metrics count; a value must match its
    reference like any other."""
    probe = results.get("defect_probe")
    if probe is None:
        return []
    return [op for op in _moment_ops(probe, oracle.DEFECT_ORDERS) if op[1] != "error"]


def _sweep_outcome(theory, reports, csv_path: Path, exit_code) -> str:
    if exit_code != 0 or not csv_path.is_file():
        return "wrong"
    lines = csv_path.read_text().splitlines()
    if not lines or lines[0] != reports.SWEEP_HEADER or len(lines) != 1 + oracle.SWEEP_ROWS:
        return "wrong"
    for line in lines[1::SWEEP_SPOT_STRIDE]:
        m, mu, nu, v, rp, mom_ok, var_ok = line.split(",")
        m, mu, nu = int(m), float(mu), float(nu)
        flags = theory.validity_domain(m, mu, nu)
        if (mom_ok, var_ok) != (str(flags.moment_finite).lower(),
                                str(flags.variance_finite).lower()):
            return "wrong"
        if not flags.moment_finite:
            if v or rp:
                return "wrong"
            continue
        pred = theory.predict(m, mu, nu, 1)
        if float(v) != pred.visibility:
            return "wrong"
        if flags.variance_finite and float(rp) != pred.rp_per_sqrt_n:
            return "wrong"
    return "ok"


def _predict_ops(theory, predictions):
    ops = []
    expected = [(m, mu) for m in oracle.PREDICT_M for mu in oracle.SIX_MU]
    if [tuple(p[:2]) for p in predictions] != expected:
        return [("predict", "wrong")] * len(expected)
    for m, mu, *values in predictions:
        name = f"predict m={m} mu={mu:g}"
        finite = theory.validity_domain(m, mu, oracle.NU).moment_finite
        if len(values) == 1:
            if values[0] != "DomainError":
                ops.append((name, "wrong"))
            else:
                # a refusal is the documented answer outside the domain
                ops.append((name, "error" if finite else "ok"))
            continue
        v, rp, sig, bg = values
        ok = finite and 0.0 < v < 1.0 and sig > 0 and bg > 0 and math.isfinite(sig * bg)
        ops.append((name, "ok" if ok else "wrong"))
    return ops


def _bucket_law_outcome(law) -> str:
    x = np.array(oracle.PDF_GRID)
    pdf, cdf = np.array(law["pdf"]), np.array(law["cdf"])
    mean = sum(oracle.BLOB_UNITS)
    tol = 1e-10  # round-off of the signed partial-fraction sum
    ok = (
        np.all(np.isfinite(pdf)) and np.all(pdf >= -tol)
        and np.all(np.isfinite(cdf)) and np.all((cdf >= -tol) & (cdf <= 1 + tol))
        and np.all(np.diff(cdf) >= -tol)
        and abs(np.trapezoid(pdf, x) - (cdf[-1] - cdf[0])) < 1e-3
        and math.isclose(law["mean"], mean, rel_tol=1e-9)
    )
    return "ok" if ok else "wrong"


def _moment_ops(moments, orders):
    refs = {(e["mu"], e["level"]): e["value"] for e in REFERENCE["moments"] if e["mu"] in orders}
    ops = []
    for mu, level, value in moments:
        name = f"moment_general mu={mu:g} t={level:g}"
        if isinstance(value, str):
            ops.append((name, "error" if value in REFUSALS else "wrong"))
        else:
            ops.append((name, "ok" if _close(value, refs[(mu, level)], MOMENT_RTOL) else "wrong"))
    if len(ops) != len(refs):
        ops.append(("moment_general count", "wrong"))
    return ops
