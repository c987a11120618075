"""The CI console commands' outputs match tests/golden.json.

A change that moves an output on purpose rewrites the file with
``PYTHONPATH=src python tests/golden.py``; the rewrite's diff lists
every value that moved.
"""

import json

from golden import GOLDEN, REL_TOL, collect, mismatches


def test_outputs_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = mismatches(expected, collect(tmp_path))
    assert not found, f"{len(found)} outputs differ beyond rel {REL_TOL}:\n" + "\n".join(found[:20])
