"""One pass of one workload in a fresh process.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the workload, seed, worker count, frame count, output
directory and record path, and whether to trace. The child imports fracgi
from the checkout's ``src``, builds the inputs (together: set-up), runs the
command, and writes a record with its set-up time, work time, completed
items, exit code and peak RSS. With ``mode: setup`` it stops after set-up.
Traced passes also write their spans next to the record.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    import fracgi
    import fracgi.cli

    t_import = time.perf_counter()
    if Path(fracgi.__file__).resolve().parent != (src / "fracgi").resolve():
        raise SystemExit(f"fracgi imported from {fracgi.__file__}, not from {src}")

    import workloads

    tracer = None
    span = contextlib.nullcontext
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(run_id=spec["run_id"])
        tracer.install(fracgi)
        span = tracer.span
    with span("bench.inputs"):
        inputs = workloads.build_inputs(fracgi, spec)
    t_setup = time.perf_counter()

    record = {"import_s": t_import - T_START, "setup_s": t_setup - T_START}
    if spec["mode"] == "pass":
        command, _ = workloads.WORKLOADS[spec["workload"]]
        out = Path(spec["out"])
        out.mkdir(parents=True, exist_ok=True)
        stdout_path = Path(spec["record"]).with_name("stdout.txt")
        with open(stdout_path, "w") as fh, contextlib.redirect_stdout(fh):
            if command == "oracle":
                import oracle

                results, items = oracle.run(inputs, out / "surfaces.csv", span,
                                            probe=spec["probe"])
                exit_code = results["sweep_exit"]
            else:
                exit_code = fracgi.cli.main(workloads.command_argv(spec))
                results, items = None, spec["frames"] if exit_code == 0 else 0
        t_end = time.perf_counter()
        if results is not None:
            Path(spec["record"]).with_name("results.json").write_text(
                json.dumps(results, sort_keys=True)
            )
        record.update(
            work_s=t_end - t_setup,
            items=items,
            exit=exit_code,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    if tracer is not None:
        tracer.dump(Path(spec["record"]).with_name("spans.json"))
    Path(spec["record"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
