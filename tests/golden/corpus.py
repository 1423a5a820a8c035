"""Golden report corpus: a fixed list of ``qes`` commands and their recorded output.

Each command runs in-process through ``qespair.cli.main``.  Its record holds
the exit code, stderr, and stdout parsed by subcommand: the JSON report for
``verify``, the ``key=value`` fields and the PASS/FAIL verdict for
``crosscheck``, and one row per level for ``spectrum``.

    PYTHONPATH=src python tests/golden/corpus.py          # largest relative change per field
    PYTHONPATH=src python tests/golden/corpus.py --write  # rewrite reports.json

``tests/test_golden.py`` compares every command against ``reports.json``.
A change that moves report values rewrites the file with ``--write`` and
records the printed table with the change.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

REPORTS = Path(__file__).with_name("reports.json")

FAMILIES = ("poly-wplus", "poly-phi", "poly-phi-ces", "sinh-wplus")
WPLUS_SEEDS = (
    "2*x + x^3",
    "x + 0.5*x^3",
    "0.5*x + 0.2*x^5",
    "x^3 + x - 0.5",
    "sinh(0.8*x)",
    "sinh(x - 0.4)",
    "x + tanh(x)",
    "3*tanh(x) + x^3",
    "2*x + tanh(x - 0.3)",
    "sinh(x) + 0.5*x",
    "x + x^3/3 + 0.5*sinh(0.5*x)",
)
PHI_SEEDS = (
    "x + x^3/3",
    "x + 0.2*x^3",
    "x - 0.5 + x^3",
    "x + x^5/5",
    "sinh(x)",
    "x + tanh(x)",
    "tanh(x) + 0.1*x^3",
    "sinh(0.5*x) + x",
    "2*x + sin(x)",
    "x + 0.3*x^3 + 0.5*tanh(2*x - 1)",
)

COMMANDS = (
    [["verify", "--family", name] for name in FAMILIES]
    + [["verify", "--family", "custom", "--expr", e] for e in WPLUS_SEEDS]
    + [["verify", "--family", "custom", "--expr", e, "--epsilon", "1.5"] for e in PHI_SEEDS]
    + [["crosscheck", "--family", "custom", "--expr", e, "--epsilon", "2"] for e in PHI_SEEDS]
    + [["spectrum", "--family", "poly-phi-ces", "--n-max", "4"],
       ["spectrum", "--family", "poly-wplus"]]
    # exit 2: refused syntax, the exponent cap checked before the operands,
    # an unknown symbol inside a call, a W1 that fails the sign probes, a
    # psi1 that is zero on every point, and a W+ seed whose phi'^3 underflows
    # (the error line alone, no RuntimeWarning)
    + [["verify", "--family", "custom", "--expr", "x % 2"],
       ["verify", "--family", "custom", "--expr", "y^65"],
       ["crosscheck", "--family", "custom", "--expr", "ln(y)", "--epsilon", "2"],
       ["verify", "--family", "custom", "--expr", "0.1*tanh(x)"],
       ["verify", "--family", "custom", "--expr", "1e150*x"],
       ["crosscheck", "--family", "custom", "--expr", "x*1e-150", "--epsilon", "1"]]
)


def _number(text: str):
    return text if text == "-" else float(text)


def _parse(command: str, stdout: str):
    if not stdout:
        return None
    if command == "verify":
        return json.loads(stdout)
    if command == "crosscheck":
        *fields, verdict = stdout.split()
        parsed = {key: float(value) for key, value in (f.split("=") for f in fields)}
        return {**parsed, "verdict": verdict}
    rows = csv.DictReader(io.StringIO(stdout))
    return [{key: _number(value) for key, value in row.items()} for row in rows]


def run(argv) -> dict:
    """Run one command in-process and return its record."""
    from qespair.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit_code": code,
            "stdout": _parse(argv[0], out.getvalue()), "stderr": err.getvalue()}


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def _field(record: dict, path) -> str:
    """The field a leaf belongs to: its first named key, under its subcommand."""
    if path[0] != "stdout":
        return path[0]
    names = [key for key in path[1:] if isinstance(key, str)]
    return f"{record['argv'][0]}.{names[0]}" if names else "stdout"


def _change(old, new) -> float:
    """0 for equal values, the relative change of two floats, else inf."""
    if type(old) is type(new) and old == new:
        return 0.0
    if type(old) is float and type(new) is float and math.isfinite(old) and math.isfinite(new):
        return abs(new - old) / max(abs(old), abs(new))
    return math.inf


def changes(old: dict, new: dict) -> dict:
    """field -> (largest change, path of the leaf) between two records of a command."""
    got = dict(_leaves(new))
    want = dict(_leaves(old))
    out = {}
    for path in want.keys() | got.keys():
        change = _change(want.get(path), got.get(path))
        field = _field(old, path)
        if change > out.get(field, (-1.0,))[0]:
            out[field] = (change, path)
    return out


def load() -> list:
    return json.loads(REPORTS.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite reports.json")
    args = parser.parse_args(argv)
    records = [run(command) for command in COMMANDS]
    if args.write:
        REPORTS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(records)} records to {REPORTS}")
        return 0
    old = {json.dumps(r["argv"]): r for r in load()}
    largest = {}
    for record in records:
        key = json.dumps(record["argv"])
        if key not in old:
            print(f"not in the corpus: {key}")
            continue
        for field, (change, path) in changes(old[key], record).items():
            if change > largest.get(field, (-1.0,))[0]:
                largest[field] = (change, path, key)
    print(f"{'field':34} {'largest relative change':>24}  where")
    for field in sorted(largest):
        change, path, key = largest[field]
        where = f"{key} {'.'.join(map(str, path))}" if change else ""
        print(f"{field:34} {change:24.3e}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
