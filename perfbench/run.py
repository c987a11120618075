#!/usr/bin/env python3
"""fracgi benchmark: three workloads, end-to-end metrics, traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload letterA-sim --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload's command in fresh processes, alternating
workers=1 and workers=2, until ``--seconds`` have passed (at least one pass
of each), and prints the end-to-end metrics: means over the passes, the
median of at least seven set-ups for set-up. ``--trace 1`` runs, as often
as ``--seconds`` allows, one untraced pass and two traced passes (workers=1
and workers=2) and prints the per-layer metrics. Every pass's outputs are
checked. The environment goes to one JSON line; the last line of stdout is
the result object. See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, layer_metrics  # noqa: E402

THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # the whole run, checks included, ends well inside 180 s

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "items_per_s": "1/s", "items_per_s_w2": "1/s",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
COMPUTED = "count.computed"
COMPUTED_BYTES = "bytes.computed"
PER_LAYER = {
    "setup.import_s": "s",
    "objects.load_s": "s",
    "speckle.batch_s": "s",
    "speckle.frames": "count",
    "speckle.unit_draws": COMPUTED,
    "speckle.ns_per_draw": "ns",
    "speckle.bytes_generated": COMPUTED_BYTES,
    "moments.pass_s": "s",
    "moments.pass_w2_s": "s",
    "moments.scaling_w2": "x",
    "moments.finalize_s": "s",
    "moments.pixel_order_updates": COMPUTED,
    "moments.bytes_accumulated": COMPUTED_BYTES,
    "metrics.image_metrics_s": "s",
    "theory.sweep_s": "s",
    "theory.closed_form_evals": "count",
    "theory.predict_s": "s",
    "theory.bucket_law_s": "s",
    "theory.moment_general_s": "s",
    "theory.moment_general_calls": "count",
    "theory.moment_general_failed": "count",
    "reports.write_s": "s",
    "reports.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        # only this checkout's own repository, not one that happens to enclose it
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "thread_pin": THREAD_PIN,
    }


def import_fracgi():
    """Import fracgi from this checkout's src; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "fracgi" / "__init__.py").is_file():
        raise BenchError(f"no fracgi sources under {src}")
    sys.path.insert(0, str(src))
    import fracgi
    import fracgi.cli  # noqa: F401

    if Path(fracgi.__file__).resolve().parent != (src / "fracgi").resolve():
        raise BenchError(f"fracgi imported from {fracgi.__file__}, not from {src}")
    return fracgi


class Run:
    """One benchmark run of one workload: its passes, checks and metrics."""

    def __init__(self, workload: str, seed: int, frames: int | None, work: Path, fracgi):
        self.workload = workload
        self.command, full_frames = workloads.WORKLOADS[workload]
        # the analytic calls of theory-oracle take no worker count
        self.worker_counts = (1,) if self.command == "oracle" else (1, 2)
        self.frames = frames if frames is not None else full_frames
        self.seed = seed
        self.work = work
        self.fracgi = fracgi
        self.started = time.perf_counter()
        self.passes = 0
        # traced theory-oracle passes also probe the known moment_general defect
        self.probe = False
        self.ops: list[tuple[str, str]] = []
        self.first_digest = None
        self.mask_path = None
        self.mask = None
        if workload == "wide-sim":
            self.mask_path = work / "wide_mask.pgm"
            self.mask_path.write_bytes(workloads.wide_mask_pgm(seed))
            self.mask = fracgi.load_object(self.mask_path)
        elif self.command == "simulate":
            self.mask = fracgi.letter_a_mask()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, workers: int, mode: str = "pass", trace: bool = False) -> dict:
        """Run one child process; returns its record plus the measured wall."""
        self.passes += 1
        pass_dir = self.work / f"pass{self.passes:03d}"
        pass_dir.mkdir()
        spec = {
            "root": str(ROOT), "workload": self.workload, "seed": self.seed,
            "workers": workers, "frames": self.frames, "mode": mode, "trace": trace,
            "probe": self.probe,
            "out": str(pass_dir / "out"), "record": str(pass_dir / "record.json"),
            "mask": str(self.mask_path) if self.mask_path else None,
            "run_id": f"{self.workload}-{self.seed}-{self.passes}",
        }
        (pass_dir / "spec.json").write_text(json.dumps(spec))
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FRACGI_WORKERS")}
        env.update(THREAD_PIN)
        timeout = self.remaining() - 5.0
        if timeout <= 0:
            raise BenchError("out of time before the next pass")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(pass_dir / "spec.json")],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        record = json.loads((pass_dir / "record.json").read_text())
        record.update(wall_s=wall, dir=pass_dir, spec=spec)
        if mode == "pass":
            out = pass_dir / "out"
            record["bytes_written"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            self.check(record)
        return record

    def check(self, record: dict) -> None:
        pass_dir, spec, exit_code = record["dir"], record["spec"], record["exit"]
        if self.command == "simulate":
            ops = checks.check_simulate(spec, self.mask, exit_code,
                                        sign_law=self.workload == "letterA-sim")
        else:
            ops = checks.check_oracle(pass_dir, exit_code)
        # frame j depends on (seed, j) only: every pass of a run, at any
        # worker count, traced or not, must produce the same bytes
        digest = checks.outputs_digest(pass_dir)
        if self.first_digest is None:
            self.first_digest = digest
        else:
            ops.append(("identical to first pass", "ok" if digest == self.first_digest else "wrong"))
        self.ops.extend(ops)
        shutil.rmtree(pass_dir / "out", ignore_errors=True)

    def failed(self) -> list[tuple[str, str]]:
        return [op for op in self.ops if op[1] != "ok"]

    def result(self, metrics: dict, units: dict) -> dict:
        for name, outcome in self.failed():
            print(f"check {outcome}: {name}")
        return {
            "correct": bool(self.ops) and all(outcome != "wrong" for _, outcome in self.ops),
            "attempted": len(self.ops),
            "failed": len(self.failed()),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }

    # -- the two kinds of run -------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        passes = {w: [] for w in self.worker_counts}
        t0 = time.perf_counter()
        while not all(passes.values()) or time.perf_counter() - t0 < seconds:
            workers = min(passes, key=lambda w: len(passes[w]))
            passes[workers].append(self.spawn(workers))
        setups = [p["setup_s"] for runs in passes.values() for p in runs]
        # every pass sets up once; a short run tops up with set-up-only processes
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.spawn(1, mode="setup")["setup_s"])

        # pass times on a shared host swing between fast and slow phases of
        # seconds to minutes; a median of a few passes flips between them,
        # a mean over the passes does not
        def rate(runs):
            return sum(p["items"] for p in runs) / sum(p["work_s"] for p in runs)

        metrics = {
            "wall_s": statistics.fmean(p["wall_s"] for p in passes[1]),
            "setup_s": statistics.median(setups),
            "items_per_s": rate(passes[1]),
            # theory-oracle: one pass serves both, there is nothing to parallelise
            "items_per_s_w2": rate(passes[max(passes)]),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes[1]),
            "ok_ratio": 1.0 - len(self.failed()) / len(self.ops),
        }
        return self.result(metrics, END_TO_END)

    def traced(self, seconds: float) -> dict:
        self.probe = self.command == "oracle"
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < seconds:
            rounds.append(self.traced_round())
        metrics = {k: statistics.median(r[k] for r in rounds) for k in PER_LAYER}
        if self.probe:
            print(f"known defect: theory.moment_general raised in "
                  f"{metrics['theory.moment_general_failed']:g} of "
                  f"{len(oracle.DEFECT_ORDERS) * len(oracle.MOMENT_LEVELS)} probe calls "
                  f"at mu in {oracle.DEFECT_ORDERS}")
        return self.result(metrics, PER_LAYER)

    def traced_round(self) -> dict:
        plain = self.spawn(1)
        one = self.spawn(1, trace=True)
        spans = json.loads((one["dir"] / "spans.json").read_text())
        m = layer_metrics(spans, workloads.N_ORDERS)
        pass_w2 = 0.0
        if 2 in self.worker_counts:
            two = self.spawn(2, trace=True)
            spans_w2 = json.loads((two["dir"] / "spans.json").read_text())
            pass_w2 = layer_metrics(spans_w2, workloads.N_ORDERS)["moments.pass_s"]
        m["setup.import_s"] = one["import_s"]
        m["moments.pass_w2_s"] = pass_w2
        m["moments.scaling_w2"] = m["moments.pass_s"] / pass_w2 if pass_w2 else 0.0
        m["reports.bytes_written"] = one["bytes_written"]
        m["trace.wall_s"] = one["wall_s"]
        m["trace.untraced_wall_s"] = plain["wall_s"]
        m["trace.overhead_s"] = one["wall_s"] - plain["wall_s"]
        m["trace.accounted_share"] = (
            one["import_s"] + sum(m[f"{layer}.self_s"] for layer in LAYERS)
        ) / one["wall_s"]
        m["trace.spans"] = len(spans)
        return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frames", type=int, default=None,
                        help="override the workload's frame count (smoke checks)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        fracgi = import_fracgi()
        print(json.dumps({"environment": environment()}))
        work.mkdir(parents=True)
        run = Run(args.workload, args.seed, args.frames, work, fracgi)
        if args.trace:
            result = run.traced(args.seconds)
        else:
            result = run.end_to_end(args.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
