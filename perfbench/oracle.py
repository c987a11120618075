"""The theory-oracle workload: closed forms, bucket law and grayscale moments.

No sampling happens here, so the workload seed is unused. The grayscale
part is the analytic half of ``scripts/grayscale_demo.py``: its 4x4 blob
object, its bucket law, and ``moment_general`` at the demo's bucket
orders for one pixel of each transmittance level. This module imports no
fracgi code at import time; ``make_reference.py`` uses its constants
without the package.
"""

from __future__ import annotations

# the README sweep grid: 2 x 60 x 30 = 3600 rows once mu = 0 is dropped
SWEEP_ARGV = ["sweep", "--m", "20,30", "--mu=-3:3:0.1", "--nu", "0.1:3:0.1"]
SWEEP_ROWS = 3600

PREDICT_M = range(2, 41)
PREDICT_N = 120_000
SIX_MU = (-2.7183, -1.414, -0.618, 0.618, 1.414, 2.7183)
NU = 0.5

# 4x4 object of the grayscale demo, raster order
BLOB_UNITS = (
    0.00, 0.25, 0.25, 0.00,
    0.25, 1.00, 1.00, 0.25,
    0.25, 1.00, 1.00, 0.25,
    0.00, 0.50, 0.50, 0.00,
)
BLOB_SIZE = 4
# the workload's orders: moment_general converges at both on the seed code
MOMENT_ORDERS = (0.618, 2.7183)
# the demo's third order: moment_general raises QuadratureError there on the
# seed code (the defect a Laplace-route moment removes). It is not part of
# the timed workload, which must have no failing operation; traced runs make
# these calls after the workload as a probe of the defect.
DEFECT_ORDERS = (-1.414,)
MOMENT_NU = 0.5
MOMENT_LEVELS = (0.0, 0.25, 0.5, 1.0)
PDF_GRID = [0.1 * k for k in range(401)]  # 0..40, the blob's mean bucket is 6.5


def blob_pixel(level: float) -> int:
    """First pixel, in raster order, with transmittance ``level``."""
    return BLOB_UNITS.index(level)


def build_inputs(fracgi):
    """The workload's inputs: blob mask, predict grid, pdf grid."""
    import numpy as np

    blob = fracgi.ObjectMask(width=BLOB_SIZE, height=BLOB_SIZE, units=np.array(BLOB_UNITS))
    predict_grid = [(m, mu) for m in PREDICT_M for mu in SIX_MU]
    return blob, predict_grid, np.array(PDF_GRID)


def run(inputs, sweep_csv, span, probe: bool = False) -> tuple[dict, int]:
    """Run the oracle; returns (results for the checks, successful evaluations).

    ``span(name)`` is a context manager that marks a phase in a traced
    run. An exception raised by a call is recorded, by type name, as that
    call's outcome; the checks count it as a failure. With ``probe`` the
    ``DEFECT_ORDERS`` calls follow the workload; they count in neither the
    evaluations nor the checked operations.
    """
    from fracgi import cli, theory

    blob, predict_grid, pdf_grid = inputs
    results = {}
    with span("bench.sweep"):
        results["sweep_exit"] = cli.main(SWEEP_ARGV + ["--out", str(sweep_csv)])

    predictions = []
    with span("bench.predict"):
        for m, mu in predict_grid:
            try:
                p = theory.predict(m, mu, NU, PREDICT_N)
                predictions.append([m, mu, p.visibility, p.rp_per_sqrt_n,
                                    p.moment_signal, p.moment_background])
            except Exception as exc:  # noqa: BLE001 - recorded and checked
                predictions.append([m, mu, type(exc).__name__])
    results["predict"] = predictions

    with span("bench.bucket_law"):
        model = theory.bucket_pdf_general(blob, 1.0)
        pdf, cdf = model.pdf(pdf_grid), model.cdf(pdf_grid)
    results["bucket_law"] = {"model": type(model).__name__, "mean": model.mean,
                             "pdf": pdf.tolist(), "cdf": cdf.tolist()}

    with span("bench.moment_general"):
        moments = _moments(theory, blob, MOMENT_ORDERS)
    results["moment_general"] = moments
    if probe:
        with span("bench.defect_probe"):
            results["defect_probe"] = _moments(theory, blob, DEFECT_ORDERS)

    evaluations = (
        (SWEEP_ROWS if results["sweep_exit"] == 0 else 0)
        + sum(1 for p in predictions if len(p) > 3)
        + pdf.size + cdf.size
        + sum(1 for m in moments if not isinstance(m[2], str))
    )
    return results, evaluations


def _moments(theory, blob, orders) -> list:
    moments = []
    for mu in orders:
        for level in MOMENT_LEVELS:
            try:
                value = theory.moment_general(blob, blob_pixel(level), mu, MOMENT_NU)
                moments.append([mu, level, float(value)])
            except Exception as exc:  # noqa: BLE001 - recorded and checked
                moments.append([mu, level, type(exc).__name__])
    return moments
