"""Command-line parameter sweeps with deterministic CSV output.

Either an INI config, command-line flags, or both (flags win)::

    nanojunction sweep.ini
    nanojunction --method rcme,arcme --regime 2 --sweep V --from 0 --to 2 \\
                 --points 21 --rc-levels 12 --out sweep.csv

The INI sections are ``[sweep]`` (method, regime, sweep, from, to, points,
log, out, workers), ``[rc]`` (levels, auto, start, step, tol, cap) and
``[model]`` (overrides for any model parameter field), read as written (no
``%`` interpolation).  Every usage error (an unknown flag, section or key, a
flag without its value, a value that does not parse such as ``--points x``,
a bad regime, sweep or model value) prints one ``error:`` line and exits 2
before any solve.

Every (method, grid point) pair becomes one CSV row; rows for points whose
solve fails keep their input columns, leave the outputs empty and are logged
to stderr without aborting the sweep.  A JSON manifest with the resolved
parameters, library versions and wall-clock timings is written next to the
CSV.  Exit status: 0 completed (even with some failed points), 1 nothing
succeeded or output could not be written, 2 bad usage or config.

``--workers N`` solves the points in N processes, and each runs SciPy's
full BLAS pool for its LU, so keep workers x BLAS threads <= cores (for
example ``OPENBLAS_NUM_THREADS=1`` with ``--workers N``).  Oversubscribed,
``--workers 2`` on 2 cores is slower than one worker.
"""
from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
import scipy

from . import __version__
from .model import REGIMES, ModelParams, regime_params
from .rc import METHODS, check_ladder
from .thermo import TransportReport, converge_report, transport_report

COLUMNS = ("method", "regime", "lambda", "V", "beta_L", "beta_R", "beta_ph", "M",
           "c1", "c2", "upsilon", "P", "IE_L", "IE_R", "IE_ph", "Q_in", "eta",
           "eta_carnot", "converged", "residual")
SWEPT = ("lambda", "V", "beta_hot", "M")
MODEL_FIELDS = tuple(f.name for f in fields(ModelParams))


@dataclass
class RcSettings:
    """Fock-truncation policy for the reaction-coordinate methods."""

    levels: int = 10
    auto: bool = False
    start: int = 10
    step: int = 4
    tol: float = 1e-6
    cap: int = 60


@dataclass
class SweepSpec:
    """A fully resolved sweep: methods x grid in one swept variable."""

    methods: tuple
    regime: int
    swept: str
    start: float
    stop: float
    points: int
    log: bool = False
    out: str = "sweep.csv"
    workers: int = 1
    rc: RcSettings = field(default_factory=RcSettings)
    model: dict = field(default_factory=dict)

    def validate(self):
        if not self.methods:
            raise ValueError("no methods selected")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} (choose from {METHODS})")
        if self.swept not in SWEPT:
            raise ValueError(f"sweep variable must be one of {SWEPT}")
        if self.points < 1:
            raise ValueError("points must be at least 1")
        if self.log and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log grids need positive endpoints")
        if self.swept == "M" and ("wcme" in self.methods or self.rc.auto):
            raise ValueError("sweeping M needs a fixed Fock truncation (no wcme, no rc auto)")
        if self.swept == "M" and self.grid().min() < 1:
            raise ValueError("Fock truncations M must be at least 1")
        if self.rc.levels < 1:
            raise ValueError("rc levels must be at least 1")
        check_ladder(self.rc.start, self.rc.step, self.rc.tol, self.rc.cap)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for k in self.model:
            if k not in MODEL_FIELDS:
                raise ValueError(f"unknown model parameter {k!r}")
        regime_params(self.regime, **self.model)  # bad regime or model values

    def grid(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


def point_params(spec: SweepSpec, x: float) -> ModelParams:
    """Model parameters at one grid value of the swept variable."""
    base = regime_params(spec.regime, **spec.model)
    if spec.swept == "lambda":
        return replace(base, lam=x)
    if spec.swept == "V":
        return base.with_bias(x)
    if spec.swept == "beta_hot":
        return replace(base, **{REGIMES[spec.regime][0]: x})
    return base  # swept == "M": the truncation changes, not the parameters


def _fmt(x) -> str:
    return "" if x is None else format(float(x), ".17g")


def _row(spec: SweepSpec, method: str, p, M, rep: TransportReport | None = None) -> list:
    """One CSV row; without a report (a failed point) the outputs stay empty.

    ``p`` is None when the grid value itself was rejected.
    """
    row = [method, str(spec.regime)]
    row += [_fmt(None if p is None else getattr(p, a))
            for a in ("lam", "V", "beta_L", "beta_R", "beta_ph")]
    row.append("" if M is None else str(M))
    for col in COLUMNS[8:]:
        v = None if rep is None else getattr(rep, col)
        row.append(("true" if v else "false") if col == "converged" else _fmt(v))
    return row


def _solve_point(task) -> tuple:
    """Worker for one (method, grid value) pair; never raises."""
    spec, method, x = task
    p = M = None
    try:
        p = point_params(spec, x)
        if method != "wcme" and spec.rc.auto:
            rep, _ = converge_report(p, method, spec.regime, start=spec.rc.start,
                                     step=spec.rc.step, tol=spec.rc.tol, cap=spec.rc.cap)
        else:
            if method != "wcme":
                M = int(round(x)) if spec.swept == "M" else spec.rc.levels
            rep = transport_report(p, method, spec.regime, M=M)
        return _row(spec, method, p, rep.M, rep), None
    except Exception as exc:  # logged per point; the sweep must go on
        msg = f"{method} at {spec.swept}={x:.8g}: {type(exc).__name__}: {exc}"
        return _row(spec, method, p, M), msg


def run_sweep(spec: SweepSpec):
    """All rows in deterministic order plus the per-point failure messages."""
    tasks = [(spec, method, float(x)) for method in spec.methods for x in spec.grid()]
    if spec.workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # a serial sweep never loads it
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            results = list(pool.map(_solve_point, tasks))
    else:
        results = [_solve_point(t) for t in tasks]
    rows = [r for r, _ in results]
    failures = [m for _, m in results if m is not None]
    return rows, failures


def write_csv(path: str, rows) -> None:
    lines = [",".join(COLUMNS)]
    lines += [",".join(r) for r in rows]
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def write_manifest(path: str, spec: SweepSpec, elapsed: float, failed: int) -> None:
    manifest = {
        "parameters": asdict(spec),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "nanojunction": __version__},
        "timings": {"total_seconds": elapsed, "failed_points": failed,
                    "points": len(spec.methods) * spec.points},
    }
    # strict JSON: a non-finite float (U = inf) is written as the string "inf"
    manifest = json.loads(json.dumps(manifest), parse_constant=lambda c: repr(float(c)))
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _methods(text: str) -> tuple:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _bool(text: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


# {section: {INI key: (field, parse)}}, the one parser of an INI value or flag text;
# [sweep] fields are SweepSpec's (flags --<key>), [rc] RcSettings' (--rc-<key>)
SETTINGS = {
    "sweep": {"method": ("methods", _methods), "regime": ("regime", int),
              "sweep": ("swept", str), "from": ("start", float),
              "to": ("stop", float), "points": ("points", int),
              "log": ("log", _bool), "out": ("out", str),
              "workers": ("workers", int)},
    "rc": {"levels": ("levels", int), "auto": ("auto", _bool), "start": ("start", int),
           "step": ("step", int), "tol": ("tol", float), "cap": ("cap", int)},
    "model": {name: (name, float) for name in MODEL_FIELDS},
}
_REQUIRED = ("method", "regime", "sweep", "from", "to", "points")


def _spec_from_sources(args) -> SweepSpec:
    """Lay the given flags' texts over the INI config's (if any) and parse them."""
    flags = dict(vars(args))   # only the flags given: the parser suppresses defaults
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str      # model keys like beta_R are case-sensitive
    if "config" in flags:
        with open(flags.pop("config")) as f:
            cfg.read_file(f)
    texts = {section: dict(cfg[section]) for section in cfg.sections()}
    for dest, text in flags.items():
        section, key = ("rc", dest[3:]) if dest.startswith("rc_") else ("sweep", dest)
        texts.setdefault(section, {})[key] = text
    values = {section: {} for section in SETTINGS}
    for section, entries in texts.items():
        if section not in SETTINGS:
            raise ValueError(f"unknown section [{section}]")
        for key, text in entries.items():
            if key not in SETTINGS[section]:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            dest, parse = SETTINGS[section][key]
            try:
                values[section][dest] = parse(text)
            except (ValueError, KeyError):
                raise ValueError(f"bad value {text!r} for {key!r} in [{section}]") from None
    missing = [k for k in _REQUIRED if k not in texts.get("sweep", {})]
    if missing:
        raise ValueError(f"missing required settings: {', '.join(missing)}")
    spec = SweepSpec(rc=RcSettings(**values["rc"]), model=values["model"],
                     **values["sweep"])
    spec.validate()
    return spec


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # usage errors exit 2 from main like bad values
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="nanojunction", argument_default=argparse.SUPPRESS,
        description="Steady-state transport sweeps for the two-site junction.")
    ap.add_argument("config", nargs="?",
                    help="INI file with [sweep], [rc], [model] sections")
    ap.add_argument("--method", help=f"comma-separated subset of {','.join(METHODS)}")
    ap.add_argument("--regime", help="1 (hot left lead) or 2 (hot phonons)")
    ap.add_argument("--sweep", help=f"swept variable, one of {','.join(SWEPT)}")
    ap.add_argument("--from", help="first grid value")
    ap.add_argument("--to", help="last grid value (inclusive)")
    ap.add_argument("--points", help="number of grid points")
    ap.add_argument("--log", action="store_const", const="true",
                    help="logarithmic grid instead of linear")
    ap.add_argument("--rc-levels", help="fixed Fock truncation M")
    ap.add_argument("--rc-auto", action="store_const", const="true",
                    help="choose M per point by the convergence ladder")
    ap.add_argument("--out", help="CSV output path (default sweep.csv)")
    ap.add_argument("--workers", help="parallel worker processes, each with "
                    "SciPy's full BLAS pool: keep workers x BLAS threads <= cores")
    return ap


def main(argv=None) -> int:
    try:
        spec = _spec_from_sources(build_parser().parse_args(argv))
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    rows, failures = run_sweep(spec)
    elapsed = time.perf_counter() - t0
    for msg in failures:
        print(f"point failed: {msg}", file=sys.stderr)
    try:
        write_csv(spec.out, rows)
        write_manifest(spec.out + ".manifest.json", spec, elapsed, len(failures))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    if len(failures) == len(rows):
        print("error: every point failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
