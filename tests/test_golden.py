"""The golden report corpus: every command's output against its recorded one.

``tests/golden/reports.json`` holds the exit code, stderr and parsed stdout
of each command in ``tests/golden/corpus.py``.  Verdicts, exit codes, node
counts, the grid, stderr and every field not named below must match
exactly.  A named field may move by at most its relative tolerance: the
largest change that a roundoff-only edit of the program has made to it, as
recorded in CHANGES.md.  A field whose recorded change sat at its
floating-point floor (relative changes near 1) is held to its bits, since a
tolerance that wide checks nothing.
"""

import contextlib
import io
import json
import logging
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).with_name("golden")))
import corpus  # noqa: E402

RTOL = {
    "verify.epsilon": 1.4e-16,
    "verify.eigenvalues": 2.3e-4,          # E0 near roundoff, e.g. -1.13e-7 of sinh(x - 0.4)
    "verify.eigenvalues_plus": 5.2e-11,
    "verify.energy_errors": 2.5e-4,
    "verify.cosine_gaps": 7.7e-3,          # at their 1e-14 floor
    "verify.susy_degeneracy_errors": 5.2e-5,
    "verify.riccati_sup": 6.4e-6,
    "verify.residual_sups": 2.6e-2,
    "verify.normalization_constants": 6.3e-16,
    "verify.boundary_amplitudes": 3.6e-14,
    "crosscheck.v_minus_sup": 7.2e-2,      # 2.96e-13 -> 3.19e-13, near its floor
    "crosscheck.psi0_sup": 4.5e-3,
    "spectrum.E_numeric": 2.3e-4,          # the eigenvalues' tolerance
    "spectrum.abs_delta": 2.5e-4,          # the energy errors' tolerance
}

RECORDS = {json.dumps(r["argv"]): r for r in corpus.load()}


def test_corpus_lists_every_command_once():
    assert sorted(RECORDS) == sorted(json.dumps(c) for c in corpus.COMMANDS)
    assert len(RECORDS) == len(corpus.COMMANDS)


@pytest.mark.parametrize("argv", corpus.COMMANDS,
                         ids=lambda argv: "_".join(a.replace(" ", "") for a in argv))
def test_output_matches_the_corpus(argv):
    recorded = RECORDS[json.dumps(argv)]
    moved = {field: (change, path)
             for field, (change, path) in corpus.changes(recorded, corpus.run(argv)).items()
             if change > RTOL.get(field, 0.0)}
    assert not moved, moved


def test_every_command_is_served_by_the_certified_eigensolver(caplog):
    with caplog.at_level(logging.DEBUG, logger="qespair.verify"):
        for argv in corpus.COMMANDS:
            corpus.run(argv)
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("eigensolve certificate failed")] == []


@pytest.mark.parametrize("argv", [c for c in corpus.COMMANDS if c[0] == "verify"]
                         + [["verify", "--family", "poly-wplus", "--sweep", "b=0.5:1.25:4"]],
                         ids=lambda argv: "_".join(a.replace(" ", "") for a in argv))
def test_verify_report_is_strict_json(argv):
    from qespair.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(list(argv))
    if out.getvalue():  # a refused command prints nothing
        json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
