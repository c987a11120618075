"""Workload definitions shared by run.py and its child process.

Each workload is one fracgi command (or, for theory-oracle, one fixed
sequence of analytic calls) whose inputs come from the workload seed. Why
each workload exists is in README.md; the one-line reasons also go into
BENCHMARK.json.
"""

from __future__ import annotations

import numpy as np

DEFAULT_ORDERS = "-2.7183:0.5,-1.414:0.5,-0.618:0.5,0.618:0.5,1.414:0.5,2.7183:0.5"
N_ORDERS = 6

WIDE_SIDE = 64
WIDE_ONES = 0.3

# name -> (command, frames at full size); frames is None for theory-oracle
WORKLOADS = {
    "letterA-sim": ("simulate", 120_000),
    "wide-sim": ("simulate", 20_000),
    "theory-oracle": ("oracle", None),
}


def wide_mask_pgm(seed: int) -> bytes:
    """64x64 binary mask, about 30 % ones, as an 8-bit PGM; a pure
    function of the seed."""
    ones = np.random.default_rng(seed).random(WIDE_SIDE * WIDE_SIDE) < WIDE_ONES
    header = f"P5\n{WIDE_SIDE} {WIDE_SIDE}\n255\n".encode("ascii")
    return header + np.where(ones, 255, 0).astype(np.uint8).tobytes()


def command_argv(spec: dict) -> list[str]:
    """fracgi command line of one pass of a sampling workload."""
    argv = ["simulate", "--i0", "1", "--n-samples", str(spec["frames"]),
            f"--orders={DEFAULT_ORDERS}", "--out", spec["out"],
            "--seed", str(spec["seed"]), "--workers", str(spec["workers"])]
    if spec.get("mask"):
        argv += ["--object", spec["mask"]]
    return argv


def build_inputs(fracgi, spec: dict):
    """The inputs the command builds: mask, orders and source config, or
    the oracle's object and grids. Timed as part of set-up."""
    command, _ = WORKLOADS[spec["workload"]]
    if command == "oracle":
        import oracle

        return oracle.build_inputs(fracgi)
    if spec.get("mask"):
        mask = fracgi.load_object(spec["mask"])
    else:
        mask = fracgi.letter_a_mask()
    orders = [
        fracgi.MomentOrder(float(mu), float(nu))
        for mu, nu in (pair.split(":") for pair in DEFAULT_ORDERS.split(","))
    ]
    config = fracgi.SpeckleConfig(i0=1.0, seed=spec["seed"], n=mask.n)
    return mask, orders, config
