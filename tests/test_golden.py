"""The CI console commands' outputs match tests/golden.json.

A change that moves an output on purpose rewrites the file with
``PYTHONPATH=src python tests/golden.py``; the rewrite's diff lists
every value that moved. The outputs do not depend on the worker count,
so a two-worker run is checked against the same file.
"""

import json

from golden import GOLDEN, REL_TOL, collect, mismatches


def check(workdir, workers):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = mismatches(expected, collect(workdir, workers))
    assert not found, f"{len(found)} outputs differ beyond rel {REL_TOL}:\n" + "\n".join(found[:20])


def test_outputs_match_golden(tmp_path):
    check(tmp_path, workers=1)


def test_outputs_match_golden_at_two_workers(tmp_path):
    check(tmp_path, workers=2)
