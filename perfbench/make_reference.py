#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the grayscale-moment references of
the theory-oracle workload.

The values come from a route independent of ``fracgi.theory.moment_general``:
the Laplace-transform integral

    E[B^mu I_i^nu] = 1/Gamma(K - mu) * int_0^inf s^(K-mu-1) (-d/ds)^K phi(s) ds,
    phi(s) = Gamma(1+nu) I0^nu (1 + s t_i I0)^-(1+nu) prod_{j != i} (1 + s t_j I0)^-1,

with K = 0 for mu < 0 and K = floor(mu) + 1 for mu > 0, evaluated with
mpmath at 30 significant digits. Needs mpmath (a test dependency), not
fracgi. Usage:

    python3 perfbench/make_reference.py
"""

import json
import math
from pathlib import Path

import mpmath as mp

from oracle import (BLOB_UNITS, DEFECT_ORDERS, MOMENT_LEVELS, MOMENT_NU, MOMENT_ORDERS,
                    blob_pixel)

mp.mp.dps = 30


def laplace_moment(units, pixel, mu, nu, i0=1.0):
    t_i = mp.mpf(units[pixel])
    others = [mp.mpf(t) for j, t in enumerate(units) if j != pixel and t > 0]
    nu, i0 = mp.mpf(nu), mp.mpf(i0)

    def phi(s):
        out = mp.gamma(1 + nu) * i0**nu * (1 + s * t_i * i0) ** (-(1 + nu))
        for t in others:
            out /= 1 + s * t * i0
        return out

    k = 0 if mu < 0 else math.floor(mu) + 1
    mu = mp.mpf(mu)

    def integrand(s):
        deriv = phi(s) if k == 0 else (-1) ** k * mp.diff(phi, s, k)
        return s ** (k - mu - 1) * deriv

    return mp.quad(integrand, [0, 0.01, 0.1, 1, 10, 100, mp.inf]) / mp.gamma(k - mu)


def main() -> None:
    entries = []
    for mu in DEFECT_ORDERS + MOMENT_ORDERS:
        for level in MOMENT_LEVELS:
            pixel = blob_pixel(level)
            value = laplace_moment(BLOB_UNITS, pixel, mu, MOMENT_NU)
            entries.append({"mu": mu, "nu": MOMENT_NU, "level": level,
                            "pixel": pixel, "value": float(value)})
            print(f"mu={mu:+.4f} t={level:<4} pixel={pixel:2d} {mp.nstr(value, 20)}")
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps({"method": "laplace-transform integral, mpmath dps=30",
                               "moments": entries}, indent=1) + "\n")


if __name__ == "__main__":
    main()
