"""Command-line front end: simulate, predict, sweep, validate.

Orders are mu:nu pairs with mu != 0 and nu > 0. ``simulate`` and
``validate`` run their pass on ``--workers`` threads (default 1), the one
worker setting; the outputs do not depend on it.

Exit codes: 0 success, 1 runtime/validation failure, 2 usage error,
3 mathematical domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics, moments, reports, speckle, theory
from .objects import MaskError, ObjectMask, block_mask, classify_units, letter_a_mask, load_object

__all__ = ["main", "builtin_mask"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# the six-order reconstruction grid used by the validation command
DEFAULT_ORDERS = "-2.7183:0.5,-1.414:0.5,-0.618:0.5,0.618:0.5,1.414:0.5,2.7183:0.5"

# most values one sweep range may take
_MAX_RANGE_VALUES = 1 << 20


class UsageError(ValueError):
    pass


def builtin_mask(m: int = 20) -> ObjectMask:
    """Built-in binary test object with exactly m effective units; the
    letter-A bitmap when m matches its 20 units, a block mask otherwise."""
    return letter_a_mask() if m == 20 else block_mask(m)


def _parse_orders(text: str) -> list[moments.MomentOrder]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise UsageError(f"--orders entries must be mu:nu pairs, got {chunk!r}")
        try:
            mu, nu = float(parts[0]), float(parts[1])
        except ValueError:
            raise UsageError(f"--orders entry {chunk!r} is not numeric")
        pairs.append(moments.MomentOrder(mu, nu))
    if not pairs:
        raise UsageError("--orders is empty")
    return pairs


def _parse_range(text: str, flag: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag} must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"{flag} has non-numeric parts: {text!r}")
    if not np.isfinite((lo, hi, step)).all():
        raise UsageError(f"{flag} has non-finite parts: {text!r}")
    if step <= 0:
        raise UsageError(f"{flag} step must be positive, got {step:g}")
    if hi < lo:
        raise UsageError(f"{flag} range is empty ({lo:g} > {hi:g})")
    # refused before the list is built; an inf quotient is refused too
    if not (hi - lo) / step <= _MAX_RANGE_VALUES - 1:
        raise UsageError(f"{flag} has more than {_MAX_RANGE_VALUES} values: {text!r}")
    count = int(round((hi - lo) / step))
    values = [round(lo + k * step, 12) for k in range(count + 1)]
    return [v for v in values if v <= hi + 1e-12]


def _load_mask(args) -> ObjectMask:
    if args.object is None:
        return builtin_mask()
    return load_object(args.object, binarize_threshold=args.binarize)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    mask = _load_mask(args)
    orders = _parse_orders(args.orders)
    classes = classify_units(mask)
    flags = [theory.require_moment(mask, o.mu, o.nu) for o in orders]
    if args.n_samples < 2:
        raise UsageError("--n-samples must be at least 2")
    config = speckle.SpeckleConfig(i0=args.i0, seed=args.seed, n=mask.n)

    samples = speckle.SampleSet(config=config, mask=mask, n_frames=args.n_samples)
    images = moments.multi_order_pass(samples, orders, workers=args.workers)

    # made only now, so a run refused before or inside the pass leaves no directory
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for idx, (order, image, order_flags) in enumerate(zip(orders, images, flags), start=1):
        name = f"ghost_{idx:02d}_mu{order.mu:g}_nu{order.nu:g}.pgm"
        reports.write_ghost_image(image, out_dir / name)
        v_emp = rp_emp = mean_sig = mean_bg = None
        if classes.one_units.size and classes.zero_units.size:
            im = metrics.image_metrics(image, classes)
            v_emp, mean_sig, mean_bg = im.v_empirical, im.mean_signal, im.mean_background
            # without a finite estimator variance the empirical SNR estimates nothing
            if order_flags.variance_finite:
                rp_emp = im.rp_empirical
        v_ana = rp_ana = None
        if classes.m is not None and classes.m >= 2:
            pred = theory.predict(classes.m, order.mu, order.nu, args.n_samples, args.i0)
            v_ana, rp_ana = pred.visibility, pred.peak_snr
        results.append(
            reports.OrderResult(
                mu=order.mu,
                nu=order.nu,
                v_empirical=v_emp,
                rp_empirical=rp_emp,
                mean_signal=mean_sig,
                mean_background=mean_bg,
                v_analytic=v_ana,
                rp_analytic=rp_ana,
            )
        )
        print(
            f"{name}: V_emp={v_emp if v_emp is None else f'{v_emp:.6g}'} "
            f"Rp_emp={rp_emp if rp_emp is None else f'{rp_emp:.6g}'} "
            f"V_analytic={v_ana if v_ana is None else f'{v_ana:.6g}'}"
        )

    report = reports.RunReport(
        mask_digest=reports.mask_digest(mask),
        i0=args.i0,
        seed=args.seed,
        n_samples=args.n_samples,
        orders=tuple((o.mu, o.nu) for o in orders),
        results=tuple(results),
    )
    reports.write_report(report, out_dir / "report.json")
    return EXIT_OK


def cmd_predict(args) -> int:
    pred = theory.predict(args.m, args.mu, args.nu, args.n, args.i0)
    print(json.dumps(dataclasses.asdict(pred), sort_keys=True, separators=(",", ":"),
                     allow_nan=False))
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        m_values = [int(v) for v in args.m.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--m must be comma-separated integers, got {args.m!r}")
    if not m_values or any(m < 2 for m in m_values):
        raise UsageError("--m values must be integers >= 2")
    mu_values = _parse_range(args.mu, "--mu")
    nu_values = _parse_range(args.nu, "--nu")
    if any(v == 0.0 for v in mu_values):
        mu_values = [v for v in mu_values if v != 0.0]
        print("note: mu = 0 excluded from the sweep grid", file=sys.stderr)
    if not mu_values or not nu_values:
        raise UsageError("sweep grid is empty")

    # flat (mu, nu) cells, mu-major; the evaluator sees only in-domain cells
    mu_grid, nu_grid = (g.ravel() for g in np.meshgrid(mu_values, nu_values, indexing="ij"))
    rows = []
    for m in m_values:
        moment_ok = theory.exists("moment", m, mu_grid, nu_grid)
        variance_ok = moment_ok & theory.exists("signal variance", m, mu_grid, nu_grid)
        v, rp = np.full(mu_grid.size, None), np.full(mu_grid.size, None)
        _, _, v[moment_ok], rp[variance_ok] = theory._closed_forms(
            m, mu_grid[moment_ok], nu_grid[moment_ok], variance=variance_ok[moment_ok])
        rows += zip([m] * v.size, mu_grid.tolist(), nu_grid.tolist(), v, rp,
                    moment_ok, variance_ok)
    reports.write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.m < 2:
        raise UsageError("--m must be at least 2 for the binary closed forms")
    if args.n_samples < 2:
        raise UsageError("--n-samples must be at least 2")
    mask = builtin_mask(args.m)
    classes = classify_units(mask)
    orders = _parse_orders(args.orders)
    for order in orders:
        theory.require_moment(args.m, order.mu, order.nu)
    config = speckle.SpeckleConfig(i0=args.i0, seed=args.seed, n=mask.n)
    samples = speckle.SampleSet(config=config, mask=mask, n_frames=args.n_samples)

    print(
        f"validate: m={args.m} N={args.n_samples} seed={args.seed} "
        f"{'null-pairing' if args.null_pairing else 'paired'}"
    )
    groups = metrics.class_average_matrix(classes)
    images = moments.multi_order_pass(samples, orders, workers=args.workers,
                                      null_pairing=args.null_pairing, groups=groups)
    failed = skipped = 0
    for order, image in zip(orders, images):
        background, signal, _, _ = theory._closed_forms(args.m, order.mu, order.nu, args.i0)
        for col, label in enumerate(metrics.CLASS_COLUMNS):
            row = f"mu={order.mu:g} nu={order.nu:g} {label}"
            # null pairing makes every reference independent of its bucket
            rule = "background" if args.null_pairing else label
            violated = "; ".join(theory.violations(f"{rule} variance", args.m, order.mu, order.nu))
            if violated:
                skipped += 1
                print(f"SKIP {row}: estimator variance infinite ({violated})")
                continue
            if args.null_pairing:
                g, se = image.g[col], image.g_se()[col]
                ok = abs(g - 1.0) < 5.0 * se
                detail = f"|g-1|={abs(g - 1):.3e} < 5*SE={5 * se:.3e}"
            else:
                target = signal if label == "signal" else background
                got, se = image.joint_mean[col], image.joint_se()[col]
                ok = abs(got - target) <= 5.0 * se
                detail = (
                    f"emp={got:.6g} analytic={target:.6g} "
                    f"dev={abs(got - target) / se if se else float('inf'):.2f} SE"
                )
            failed += not ok
            print(f"{'PASS' if ok else 'FAIL'} {row}: {detail}")
    if failed:
        print("some checks FAILED")
    elif skipped:
        print(f"no check failed; {skipped} skipped (infinite estimator variance)")
    else:
        print("all checks passed")
    return EXIT_RUNTIME if failed else EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracgi",
        description="Thermal-light ghost imaging via fractional-order moments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the forward model and reconstruct")
    sim.add_argument("--object", help="mask file (PGM or CSV); built-in letter A if omitted")
    sim.add_argument("--binarize", type=float, default=None, metavar="T",
                     help="threshold in (0,1) mapping values to {0,1}")
    sim.add_argument("--i0", type=float, default=1.0, help="mean speckle intensity")
    sim.add_argument("--n-samples", type=int, required=True, help="frame count N")
    sim.add_argument("--orders", required=True, help="comma-separated mu:nu pairs")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--workers", type=int, default=1, help="threads for the pass")
    sim.set_defaults(func=cmd_simulate)

    pred = sub.add_parser("predict", help="closed-form predictions for binary masks")
    pred.add_argument("--m", type=int, required=True, help="effective unit count")
    pred.add_argument("--mu", type=float, required=True)
    pred.add_argument("--nu", type=float, required=True)
    pred.add_argument("--n", type=int, default=120000, help="sampling count N")
    pred.add_argument("--i0", type=float, default=1.0)
    pred.set_defaults(func=cmd_predict)

    sweep = sub.add_parser("sweep", help="visibility / relative-SNR surfaces as CSV")
    sweep.add_argument("--m", required=True, help="comma-separated unit counts")
    sweep.add_argument("--mu", required=True, help="lo:hi:step")
    sweep.add_argument("--nu", required=True, help="lo:hi:step")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)

    val = sub.add_parser("validate", help="Monte-Carlo vs closed-form self check")
    val.add_argument("--m", type=int, default=20)
    val.add_argument("--n-samples", type=int, default=200000)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--i0", type=float, default=1.0)
    val.add_argument("--orders", default=DEFAULT_ORDERS)
    val.add_argument("--null-pairing", action="store_true",
                     help="decorrelate bucket/reference pairing (contrast must vanish)")
    val.add_argument("--workers", type=int, default=1, help="threads for the pass")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise UsageError(f"--workers must be positive, got {args.workers}")
        return args.func(args)
    except (UsageError, MaskError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except theory.DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # noqa: BLE001 - stable exit-code contract
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
