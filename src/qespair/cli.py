"""Command-line front end.

Subcommands
-----------
build       construct a model, print a one-line summary, optionally emit the
            plot-ready CSV table (x, v_minus, v_plus, w, w1, psi0, psi1)
verify      run the numerical verification battery, print the JSON report
spectrum    tabulate numeric levels against the analytically known ones
crosscheck  build the same phi-seeded model through both routes and compare

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or validation error.

Floats in the CSV table are printed with 17 significant digits so re-parsing
reproduces them bit for bit; JSON uses Python's shortest round-trip form.
Library warnings go to stderr as ``warning: <message>``, each distinct
message once per command.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import logging
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .construct import build_from_phi, build_from_wplus, cross_check_constructions
from .errors import ConfigError, QesError
from .expressions import parse_generator
from .families import FAMILIES
from .functions import _sample_finite
from .verify import (POINTS_PER_LEVEL, VERIFY_LEVELS, Grid, Tolerances, auto_grid, eigensolve,
                     verify_model)

__all__ = ["main", "entry", "build_parser"]

CROSSCHECK_BUDGET = 1e-8
MAX_SPECTRUM_DEPTH = 8


def _fmt(v) -> str:
    return format(float(v), ".17g")


@dataclass
class ModelConfig:
    """Effective configuration after merging config file and flags."""

    family: str = next(iter(FAMILIES))  # the registry's first entry
    params: dict = field(default_factory=dict)
    expr: Optional[str] = None
    scale_hint: float = 1.0
    grid: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


def _number(value, key: str, kind=float):
    """A config value converted to kind, or a ConfigError naming its key."""
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"config value {key} must be {noun} (got {value!r})") from exc


_SECTION_KEYS = {"grid": ["L", "N"], "output": ["path"],
                 "tolerances": [f.name for f in dataclasses.fields(Tolerances)]}


def _require_known(section: dict, known, prefix: str = ""):
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown config key {prefix + key!r} "
                              f"(expected one of {sorted(known)})")


def _load_config_file(path: str) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    _require_known(raw, [f.name for f in dataclasses.fields(ModelConfig)])
    cfg = ModelConfig(**raw)
    for name in ("params", "grid", "tolerances", "output"):
        section = getattr(cfg, name) or {}
        if not isinstance(section, dict):
            raise ConfigError(f"config key {name!r} must be a JSON object (got {section!r})")
        if name in _SECTION_KEYS:  # params depend on the family: _family checks them
            _require_known(section, _SECTION_KEYS[name], f"{name}.")
        setattr(cfg, name, dict(section))
    return cfg


def _resolve_config(args) -> ModelConfig:
    cfg = _load_config_file(args.config) if args.config else ModelConfig()
    # each flag's config key as (section, key); section None is a top-level field
    keys = {"family": (None, "family"), **{k: ("params", k) for k in _param_names()},
            "expr": (None, "expr"), "scale_hint": (None, "scale_hint"), "grid_l": ("grid", "L"),
            "grid_n": ("grid", "N"), "tol_e": ("tolerances", "energy"),
            "out": ("output", "path"), "emit": ("output", "path")}
    for flag, (section, key) in keys.items():
        value = getattr(args, flag, None)  # out and emit belong to one command each
        if value is not None:
            (getattr(cfg, section) if section else vars(cfg))[key] = value
    if not isinstance(cfg.family, str):
        raise ConfigError(f"config value family must be a string (got {cfg.family!r})")
    if not isinstance(cfg.output.get("path", ""), str):
        raise ConfigError(f"config value output.path must be a string (got {cfg.output['path']!r})")
    return cfg


def _param_names() -> list:
    """Every family parameter, in registry order: one flag and one override each."""
    return list(dict.fromkeys(key for spec in FAMILIES.values() for key in spec.defaults))


def _family(cfg: ModelConfig):
    """(build, params, exact_spectrum) of cfg.family; build(params) makes the model.

    A FAMILIES entry fills unset parameters from its defaults and refuses a
    set expr or scale_hint.  custom parses expr at scale_hint when it builds,
    and takes only epsilon, which selects the phi route.
    """
    spec = FAMILIES.get(cfg.family)
    if spec is None and cfg.family != "custom":
        raise ConfigError(
            f"unknown family {cfg.family!r} (choose from {sorted(FAMILIES)} or custom)")
    allowed = list(spec.defaults) if spec else ["epsilon"]
    unset = {"expr": None, "scale_hint": 1.0} if spec else {}
    for key in [*cfg.params, *(k for k, v in unset.items() if getattr(cfg, k) != v)]:
        if key not in allowed:
            raise ConfigError(f"parameter {key!r} is not used by family {cfg.family!r} "
                              f"(expected {allowed})")
    params = {key: _number(value, f"params.{key}") for key, value in cfg.params.items()}
    if spec:
        return spec.build, {**spec.defaults, **params}, spec.exact_spectrum

    def build(params):
        if not (cfg.expr and isinstance(cfg.expr, str)):
            raise ConfigError("custom family requires --expr (a string)")
        gen = parse_generator(cfg.expr, scale_hint=_number(cfg.scale_hint, "scale_hint"))
        eps = params.get("epsilon")
        return build_from_wplus(gen) if eps is None else build_from_phi(gen, eps)

    return build, params, None


def make_model(cfg: ModelConfig):
    build, params, _ = _family(cfg)
    return build(params)


def _settings(args, levels: int = 0):
    """A command's config, Tolerances and grid_of, each setting checked before any model.

    grid_of(model) is the configured Grid when L is set, else auto_grid of N
    points at the configured boundary decay.  levels is how many eigenvalues
    the command solves for: eigensolve resolves N // POINTS_PER_LEVEL on N points."""
    cfg = _resolve_config(args)
    _family(cfg)
    overrides = {}
    for key, value in cfg.tolerances.items():
        overrides[key] = _number(value, f"tolerances.{key}")
        if not (math.isfinite(overrides[key]) and overrides[key] > 0):
            raise ConfigError(f"config value tolerances.{key} must be positive and finite "
                              f"(got {value!r})")
    tol = Tolerances(**overrides)
    n = _number(cfg.grid.get("N", Grid.N), "grid.N", int)
    if n < 3 or n % 2 == 0:
        raise ConfigError(f"grid N (--grid-n) must be an odd integer >= 3 (got {n})")
    if 8 * n > np.iinfo(np.intp).max:  # numpy refuses an array whose bytes overflow intp
        raise ConfigError(f"grid N (--grid-n) = {n} is more points than numpy can address")
    if levels > n // POINTS_PER_LEVEL:
        raise ConfigError(f"grid N (--grid-n) = {n} resolves at most {n // POINTS_PER_LEVEL} "
                          f"levels; {levels} are needed "
                          f"(use N >= {POINTS_PER_LEVEL * levels + 1})")
    if "L" not in cfg.grid:  # auto_grid is looked up per call, so a patched name is used
        return cfg, tol, lambda model: auto_grid(model, tol.boundary_decay, n)
    L = _number(cfg.grid["L"], "grid.L")
    try:
        grid = Grid(L, n)
    except ValueError as exc:  # N is checked above, so the box is at fault
        raise ConfigError(f"grid L (--grid-l) = {L!r} is refused: {exc}") from exc
    return cfg, tol, lambda model: grid


def _sweep_values(spec: str):
    try:
        key, rng = spec.split("=", 1)
        start, stop, steps = rng.split(":")
        ends = float(start), float(stop)
        with np.errstate(over="ignore", invalid="ignore"):  # STOP - START may overflow
            values = np.linspace(*ends, int(steps))
        if not np.all(np.isfinite([*ends, *values])):
            raise ValueError("a sweep value is not finite")
    except ValueError as exc:
        raise ConfigError(f"bad --sweep {spec!r}: expected KEY=START:STOP:STEPS") from exc
    if len(values) < 1:
        raise ConfigError("sweep needs at least one step")
    return key.strip(), sorted(float(v) for v in values)


def _summary_line(cfg: ModelConfig, model) -> str:
    params = _family(cfg)[1]
    parts = [f"family={cfg.family}"] + ([f"expr={cfg.expr!r}"] if cfg.expr else [])
    parts += [f"{k}={_fmt(v)}" for k, v in params.items()]
    parts += [f"{k}={_fmt(getattr(model, k))}" for k in ("epsilon", "x0") if k not in params]
    parts += ["E0=0", f"E1={_fmt(model.epsilon)}"]
    return " ".join(parts)


def _write(path: str, write):
    """write(fh) on path opened for text; a failure is a ConfigError naming path."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _emit_table(model, grid: Grid, path: str):
    names = ["x", "v_minus", "v_plus", "w", "w1", "psi0", "psi1"]
    fns = (model.potentials.v_minus, model.potentials.v_plus, model.W.w, model.W1.w)
    x = grid.points()
    columns = ([x] + [_sample_finite(f, x, grid.where, n) for n, f in zip(names[1:], fns)]
               + _sample_finite(model.states, x, grid.where, *names[5:]))
    rows = ([_fmt(v) for v in row] for row in zip(*columns))
    _write(path, lambda fh: csv.writer(fh).writerows(itertools.chain([names], rows)))


def _sweep_points(cfg: ModelConfig, args):
    """(config, "KEY=VALUE") per --sweep point, or [(cfg, None)] without a sweep."""
    if not args.sweep:
        return [(cfg, None)]
    key, values = _sweep_values(args.sweep)
    return [(dataclasses.replace(cfg, params=dict(cfg.params, **{key: value}),
                                 output=dict(cfg.output)), f"{key}={_fmt(value)}")
            for value in values]


def cmd_build(args) -> int:
    cfg, _, grid_of = _settings(args)
    for sub, point in _sweep_points(cfg, args):
        model = make_model(sub)
        path = sub.output.get("path")
        if path:
            _emit_table(model, grid_of(model),
                        path if point is None else f"{path}.{point}.csv")
        print(_summary_line(sub, model))
    return 0


def cmd_verify(args) -> int:
    cfg, tol, grid_of = _settings(args, VERIFY_LEVELS)
    payloads = []
    for sub, _ in _sweep_points(cfg, args):
        model = make_model(sub)
        report = verify_model(model, grid_of(model), tol)
        payloads.append({"config": dataclasses.asdict(sub), **report.to_dict()})
    _write_json(payloads if args.sweep else payloads[0], cfg.output.get("path"))
    return 0 if all(p["passed"] for p in payloads) else 1


def _write_json(payload, path: Optional[str]):
    text = json.dumps(payload, indent=2)
    if path:
        _write(path, lambda fh: fh.write(text + "\n"))
    else:
        print(text)


def cmd_spectrum(args) -> int:
    n_max = args.n_max
    if n_max < 0:
        raise ConfigError("n-max must be >= 0")
    if n_max > MAX_SPECTRUM_DEPTH:
        raise ConfigError(
            f"n-max {n_max} exceeds the supported excited-state depth ({MAX_SPECTRUM_DEPTH})")
    cfg, _, grid_of = _settings(args, n_max + 1)
    _, params, exact_spectrum = _family(cfg)
    model = make_model(cfg)
    energies, _ = eigensolve(model.potentials.v_minus, grid_of(model), n_max + 1)
    analytic = (exact_spectrum(params, n_max) if exact_spectrum
                else [0.0, model.epsilon][: n_max + 1])

    print("n,E_analytic,E_numeric,abs_delta")
    for n, e_num in enumerate(energies):
        if n < len(analytic):
            e_ana = analytic[n]
            print(f"{n},{_fmt(e_ana)},{_fmt(e_num)},{_fmt(abs(e_num - e_ana))}")
        else:
            print(f"{n},-,{_fmt(e_num)},-")
    return 0


def cmd_crosscheck(args) -> int:
    model = make_model(_settings(args)[0])
    if model.phi is None:  # a W_plus-route model has no seed phi to rebuild it from
        raise ConfigError("crosscheck requires a phi-based family "
                          "(poly-phi, poly-phi-ces, or custom --expr with --epsilon)")
    result = cross_check_constructions(model)
    ok = result.max_discrepancy < CROSSCHECK_BUDGET
    print(f"v_minus_sup={_fmt(result.v_minus_sup)} psi0_sup={_fmt(result.psi0_sup)} "
          f"psi1_sup={_fmt(result.psi1_sup)} budget={_fmt(CROSSCHECK_BUDGET)} "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


class _WarningPrinter(logging.Handler):
    """Prints each distinct qespair warning once as "warning: <message>".

    The stream is looked up at emit time, so a caller that redirects
    sys.stderr around main() gets the lines.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self._seen = set()

    def emit(self, record):
        message = record.getMessage()
        if message not in self._seen:
            self._seen.add(message)
            print(f"warning: {message}", file=sys.stderr)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qes parser, built once per process; each parse_args gives a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    model = common.add_argument_group("model")
    model.add_argument("--family", choices=sorted(FAMILIES) + ["custom"],
                       help="built-in family or 'custom' with --expr")
    for name in _param_names():
        takers = ", ".join(f for f, spec in FAMILIES.items() if name in spec.defaults)
        note = "; with custom --expr selects the phi route" if name == "epsilon" else ""
        model.add_argument(f"--{name}", type=float, help=f"parameter of {takers}{note}")
    model.add_argument("--expr", help="inline expression for W+ (or phi when --epsilon is given)")
    model.add_argument("--scale-hint", dest="scale_hint", type=float,
                       help="characteristic length for custom expressions (default 1)")
    run = common.add_argument_group("grid and tolerances")
    run.add_argument("--grid-n", dest="grid_n", type=int, help="number of grid points (odd)")
    run.add_argument("--grid-l", dest="grid_l", type=float, help="half-width of the box")
    run.add_argument("--tol-e", dest="tol_e", type=float, help="absolute energy tolerance")
    run.add_argument("--config", help="JSON config file; flags override it")

    parser = argparse.ArgumentParser(
        prog="qes",
        description="Construct and verify quasi-exactly solvable potentials "
                    "with two analytically known eigenstates.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_build = sub.add_parser("build", parents=[common],
                             help="construct a model and optionally emit its table")
    p_build.add_argument("--emit", help="write the CSV table here")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the verification battery, print JSON")
    p_verify.add_argument("--out", help="write the JSON report here instead of stdout")
    p_verify.set_defaults(func=cmd_verify)
    for p in (p_build, p_verify):
        p.add_argument("--sweep", help="KEY=START:STOP:STEPS parameter sweep")

    p_spec = sub.add_parser("spectrum", parents=[common],
                            help="tabulate numeric vs analytic levels")
    p_spec.add_argument("--n-max", dest="n_max", type=int, default=4,
                        help="highest level index (max 8)")
    p_spec.set_defaults(func=cmd_spectrum)

    p_cross = sub.add_parser("crosscheck", parents=[common],
                             help="compare the two construction routes")
    p_cross.set_defaults(func=cmd_crosscheck)
    for p in (p_build, p_verify, p_spec, p_cross):  # argparse took "-1e-05" for a flag
        p._negative_number_matcher = re.compile(r"-\.?\d")  # no flag starts "-<digit>"
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    logger = logging.getLogger("qespair")
    printer = _WarningPrinter()
    logger.addHandler(printer)
    try:
        return args.func(args)
    except (QesError, MemoryError) as exc:  # numpy refuses an array too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(printer)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
