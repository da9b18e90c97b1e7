"""Sweep driver: config resolution, CSV/manifest output, exit codes."""
import configparser
import inspect
import json
import re

import numpy as np
import pytest

from nanojunction import cli, thermo
from nanojunction.cli import (
    COLUMNS,
    SETTINGS,
    RcSettings,
    SweepSpec,
    build_parser,
    main,
    point_params,
    run_sweep,
)
from nanojunction.model import regime_params
from nanojunction.rc import converge_in_levels
from nanojunction.thermo import transport_report


def _spec(**kw):
    base = dict(methods=("wcme",), regime=2, swept="V", start=0.0, stop=0.2,
                points=3)
    base.update(kw)
    return SweepSpec(**base)


def test_grid_endpoints_inclusive():
    lin = _spec(points=5).grid()
    assert lin[0] == 0.0 and lin[-1] == 0.2 and len(lin) == 5
    log = _spec(start=0.1, stop=1000.0, points=5, log=True).grid()
    assert log[0] == pytest.approx(0.1) and log[-1] == pytest.approx(1000.0)
    assert np.allclose(np.diff(np.log(log)), np.log(10.0))
    log = _spec(start=3.0, stop=300.0, points=9, log=True).grid()
    assert log[0] == 3.0 and log[-1] == 300.0


def test_point_params_routes_the_swept_variable():
    assert point_params(_spec(swept="lambda"), 7.5).lam == 7.5
    assert point_params(_spec(swept="V"), 0.3).V == pytest.approx(0.3)
    p1 = point_params(_spec(regime=1, swept="beta_hot"), 0.05)
    assert p1.beta_L == 0.05 and p1.beta_ph == 1.0
    p2 = point_params(_spec(regime=2, swept="beta_hot"), 0.05)
    assert p2.beta_ph == 0.05 and p2.beta_L == 1.0
    pm = point_params(_spec(methods=("rcme",), swept="M"), 12.0)
    assert pm == regime_params(2)


@pytest.mark.parametrize("bad", [
    dict(methods=()),
    dict(methods=("wcme", "secular")),
    dict(regime=3),
    dict(swept="voltage"),
    dict(points=0),
    dict(log=True, start=-1.0, stop=1.0),
    dict(methods=("wcme", "rcme"), swept="M"),
    dict(workers=0),
    dict(model={"bogus": 1.0}),
    dict(methods=("rcme",), swept="M", start=0.0, stop=8.0),
    dict(rc=RcSettings(levels=0)),
    dict(rc=RcSettings(start=0)),
    dict(rc=RcSettings(step=0)),
    dict(rc=RcSettings(auto=True, start=12, cap=8)),
    dict(rc=RcSettings(tol=0.0)),
    dict(rc=RcSettings(auto=True, tol=-1.0)),
    dict(model={"beta_R": -1.0}),
    dict(methods=("rcme",), swept="M", rc=RcSettings(auto=True)),
])
def test_spec_validation_rejects(bad):
    with pytest.raises(ValueError):
        _spec(**bad).validate()


def test_config_file_merges_under_flags(tmp_path):
    ini = tmp_path / "sweep.ini"
    ini.write_text(
        "[sweep]\n"
        "method = wcme, rcme\n"
        "regime = 2\n"
        "sweep = lambda\n"
        "from = 0.1\n"
        "to = 10\n"
        "points = 4\n"
        "log = yes\n"
        "out = run.csv\n"
        "workers = 2\n"
        "[rc]\n"
        "levels = 6\n"
        "[model]\n"
        "beta_R = 0.9\n"
    )
    from nanojunction.cli import _spec_from_sources
    args = build_parser().parse_args([str(ini), "--points", "7",
                                      "--method", "rcme"])
    spec = _spec_from_sources(args)
    assert spec.methods == ("rcme",)          # flag wins
    assert spec.points == 7                   # flag wins
    assert spec.log and spec.start == 0.1 and spec.stop == 10.0
    assert spec.out == "run.csv"
    assert spec.rc == RcSettings(levels=6)
    assert spec.model == {"beta_R": 0.9}
    assert (spec.regime, spec.swept, spec.workers) == (2, "lambda", 2)

    # every [sweep] key, set in the file and overridden by its flag
    ini.write_text(ini.read_text().replace("log = yes", "log = no"))
    cfg = configparser.ConfigParser()
    cfg.read(ini)
    assert set(cfg["sweep"]) == set(SETTINGS["sweep"])
    assert not _spec_from_sources(build_parser().parse_args([str(ini)])).log
    args = build_parser().parse_args([
        str(ini), "--method", "arcme,wcme", "--regime", "1", "--sweep", "V",
        "--from", "0.5", "--to", "0.7", "--points", "3", "--log",
        "--out", "flag.csv", "--workers", "3"])
    spec = _spec_from_sources(args)
    assert (spec.methods, spec.regime, spec.swept, spec.start, spec.stop,
            spec.points, spec.log, spec.out, spec.workers) == (
        ("arcme", "wcme"), 1, "V", 0.5, 0.7, 3, True, "flag.csv", 3)
    assert spec.rc == RcSettings(levels=6) and spec.model == {"beta_R": 0.9}


def test_docstring_lists_every_sweep_and_rc_key():
    for section in ("sweep", "rc"):
        listed = re.search(rf"``\[{section}\]`` \(([^)]*)\)", cli.__doc__).group(1)
        assert {k.strip() for k in listed.split(",")} == set(SETTINGS[section])


def test_flags_alone_are_sufficient(tmp_path):
    out = tmp_path / "v.csv"
    code = main(["--method", "wcme", "--regime", "2", "--sweep", "V",
                 "--from", "0", "--to", "0.1", "--points", "2",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 3
    assert all(len(line.split(",")) == len(COLUMNS) for line in lines)


def test_csv_cells_roundtrip_and_match_direct_solve(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["--method", "wcme", "--regime", "2", "--sweep", "V",
                 "--from", "0.05", "--to", "0.1", "--points", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    for V, line in zip((0.05, 0.1), lines[1:]):
        cells = dict(zip(COLUMNS, line.split(",")))
        rep = transport_report(regime_params(2).with_bias(V), "wcme", 2)
        assert float(cells["c1"]) == rep.c1           # .17g is lossless
        assert float(cells["eta"]) == rep.eta
        assert cells["converged"] == "true" and cells["M"] == ""


def test_model_U_reaches_every_method(tmp_path):
    """[model] U = 0.8 reaches the reaction-coordinate rows, not only wcme."""
    ini = tmp_path / "u.ini"
    ini.write_text("[model]\nU = 0.8\n")
    out = tmp_path / "u.csv"
    assert main([str(ini), "--method", "wcme,rcme", "--regime", "2", "--sweep", "V",
                 "--from", "0.5", "--to", "0.5", "--points", "1", "--rc-levels", "6",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    p = regime_params(2, U=0.8).with_bias(0.5)
    for line, method, M in zip(lines, ("wcme", "rcme"), (None, 6)):
        cells = dict(zip(COLUMNS, line.split(",")))
        rep = transport_report(p, method, 2, M=M)
        assert cells["method"] == method
        assert float(cells["c1"]) == rep.c1 and float(cells["c2"]) == rep.c2
    blockade = transport_report(regime_params(2).with_bias(0.5), "rcme", 2, M=6)
    assert float(cells["c1"]) != blockade.c1          # U = 0.8 moved the rcme row


def test_repeat_runs_are_byte_identical(tmp_path):
    args = ["--method", "wcme,rcme", "--regime", "2", "--sweep", "lambda",
            "--from", "1", "--to", "3", "--points", "2", "--rc-levels", "6"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stalled_engine_leaves_ratio_cells_empty(tmp_path):
    out = tmp_path / "stall.csv"
    assert main(["--method", "wcme", "--regime", "2", "--sweep", "V",
                 "--from", "1.9", "--to", "2.0", "--points", "2",
                 "--out", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        cells = dict(zip(COLUMNS, line.split(",")))
        assert cells["eta"] == ""
        assert cells["converged"] == "true"
        assert float(cells["c1"]) < 0.0


def test_truncation_sweep_reports_each_level(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["--method", "rcme", "--regime", "2", "--sweep", "M",
                 "--from", "4", "--to", "8", "--points", "2",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[COLUMNS.index("M")] for r in rows] == ["4", "8"]
    c1 = [float(r[COLUMNS.index("c1")]) for r in rows]
    assert all(np.isfinite(c1))


def test_auto_point_solves_each_ladder_level_once(tmp_path, monkeypatch):
    """An --rc-auto point builds one generator per ladder level, none after it,
    and writes the report and verdict of the level its certificate names."""
    p = regime_params(1, lam=3.0)
    cert = converge_in_levels(lambda M: transport_report(p, "rcme", 1, M=M).c1)
    builds = []
    real_build = thermo.build_generator

    def counting_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(thermo, "build_generator", counting_build)
    out = tmp_path / "auto.csv"
    assert main(["--method", "rcme", "--regime", "1", "--sweep", "lambda",
                 "--from", "3", "--to", "3", "--points", "1", "--rc-auto",
                 "--out", str(out)]) == 0
    assert len(builds) == len(cert.history)
    cells = dict(zip(COLUMNS, out.read_text().splitlines()[1].split(",")))
    assert cells["M"] == str(cert.M)
    assert cells["converged"] == ("true" if cert.converged else "false")
    assert float(cells["c1"]) == cert.value


def test_ladder_defaults_match_converge_in_levels():
    """``RcSettings`` restates the ladder's defaults; the two must not drift apart."""
    ladder = {name: par.default
              for name, par in inspect.signature(converge_in_levels).parameters.items()
              if par.default is not inspect.Parameter.empty}
    assert sorted(ladder) == ["cap", "start", "step", "tol"]
    assert {name: getattr(RcSettings(), name) for name in ladder} == ladder


def test_workers_do_not_change_the_rows():
    spec = _spec(points=3)
    serial, f1 = run_sweep(spec)
    parallel, f2 = run_sweep(_spec(points=3, workers=2))
    assert serial == parallel
    assert f1 == [] and f2 == []


def test_manifest_records_environment(tmp_path):
    import scipy
    import nanojunction
    out = tmp_path / "v.csv"
    assert main(["--method", "wcme", "--regime", "1", "--sweep", "V",
                 "--from", "0", "--to", "0.1", "--points", "2",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "v.csv.manifest.json").read_text())
    assert manifest["versions"]["numpy"] == np.__version__
    assert manifest["versions"]["scipy"] == scipy.__version__
    assert manifest["versions"]["nanojunction"] == nanojunction.__version__
    assert manifest["parameters"]["points"] == 2
    assert manifest["timings"]["points"] == 2
    assert manifest["timings"]["failed_points"] == 0


def test_manifest_is_strict_json_with_an_infinite_U(tmp_path):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    ini = tmp_path / "blockade.ini"
    ini.write_text("[model]\nU = inf\n")
    out = tmp_path / "b.csv"
    assert main([str(ini), "--method", "wcme", "--regime", "1", "--sweep", "V",
                 "--from", "0", "--to", "0.1", "--points", "2", "--out", str(out)]) == 0
    text = (tmp_path / "b.csv.manifest.json").read_text()
    manifest = json.loads(text, parse_constant=refuse)
    assert manifest["parameters"]["model"]["U"] == "inf"


def test_bad_invocations_exit_2(tmp_path, capsys):
    assert main([]) == 2                                  # nothing specified
    assert ("missing required settings: method, regime, sweep, from, to, points"
            in capsys.readouterr().err)                   # named as INI keys and flags
    assert main(["--method", "secular", "--regime", "2", "--sweep", "V",
                 "--from", "0", "--to", "1", "--points", "2"]) == 2
    assert main(["--method", "wcme", "--regime", "2", "--sweep", "M",
                 "--from", "4", "--to", "8", "--points", "2"]) == 2
    assert main(["--method", "rcme", "--regime", "2", "--sweep", "M", "--rc-auto",
                 "--from", "4", "--to", "8", "--points", "2"]) == 2
    assert main([str(tmp_path / "missing.ini")]) == 2
    bias = ["--method", "rcme", "--regime", "2", "--sweep", "V",
            "--from", "0", "--to", "1", "--points", "2", "--out", str(tmp_path / "b.csv")]
    assert main(bias + ["--rc-levels", "0"]) == 2
    assert main(["--method", "rcme", "--regime", "2", "--sweep", "M",
                 "--from", "0", "--to", "8", "--points", "2"]) == 2
    assert main(["--method", "rcme", "--regime", "2", "--sweep", "M",
                 "--from", "4", "--to", "5", "--points", "4"]) == 2   # M = 4, 4.33, 4.67, 5
    assert "distinct integers" in capsys.readouterr().err
    ini = tmp_path / "ladder.ini"
    ini.write_text("[rc]\nauto = true\nstart = 12\ncap = 8\n")
    assert main([str(ini)] + bias) == 2
    for text, named in [("[rc]\nlevls = 4\n", "'levls'"),
                        ("[modle]\nlam = 3\n", "[modle]"),
                        ("[sweep]\nlog = maybe\n", "'log'"),
                        ("[rc]\nauto = true\ntol = -1\n", "tol"),
                        ("[model]\nbeta_R = -1\n", "inverse temperatures"),
                        ("[model]\nlam = nan\n", "lam is NaN"),
                        ("[model]\nlam = inf\n", "lam")]:
        ini.write_text(text)
        capsys.readouterr()
        assert main([str(ini)] + bias) == 2, text
        assert named in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()          # no point was solved


def test_bad_flag_values_exit_2_like_the_file(tmp_path, capsys):
    """A flag's text goes through its INI key's parser: one ``error:`` line naming
    the key, exit 2, no SystemExit and no CSV, the same message as from a file."""
    out = tmp_path / "b.csv"
    flags = {"--method": "wcme", "--regime": "2", "--sweep": "V", "--from": "0",
             "--to": "0.1", "--points": "2"}
    ini = tmp_path / "bad.ini"
    for flag, text, section, key in [("--regime", "two", "sweep", "regime"),
                                     ("--points", "x", "sweep", "points"),
                                     ("--rc-levels", "x", "rc", "levels"),
                                     ("--sweep", "volts", "sweep", "sweep")]:
        rest = [a for f, v in flags.items() if f != flag for a in (f, v)]
        rest += ["--out", str(out)]
        capsys.readouterr()
        assert main(rest + [flag, text]) == 2, flag
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0], err
        ini.write_text(f"[{section}]\n{key} = {text}\n")
        assert main([str(ini)] + rest) == 2, flag
        assert capsys.readouterr().err.splitlines() == err
        assert not out.exists()

    odd = tmp_path / "a%b.csv"                            # no %-interpolation of either
    given = [a for f, v in flags.items() for a in (f, v)]
    ini.write_text(f"[sweep]\nout = {odd}\n")
    for argv in (given + ["--out", str(odd)], [str(ini)] + given):
        odd.unlink(missing_ok=True)
        assert main(argv) == 0, argv
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a%b.csv", "a%b.csv.manifest.json", "bad.ini"]


def test_usage_errors_return_2(tmp_path, capsys, monkeypatch):
    """A flag without its value, an unknown flag or a second positional prints one
    ``error:`` line and returns 2 from ``main``, like a bad value; -h still exits 0."""
    monkeypatch.chdir(tmp_path)
    for argv in (["--points"], ["--bogus"], ["x.ini", "y.ini"]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
    assert list(tmp_path.iterdir()) == []                 # no CSV, no manifest
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0


def test_unsolvable_points_fail_soft(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    code = main(["--method", "wcme", "--regime", "1", "--sweep", "beta_hot",
                 "--from", "-1", "--to", "-0.5", "--points", "2",
                 "--out", str(out)])
    assert code == 1                                      # every point failed
    assert "point failed" in capsys.readouterr().err
    for line in out.read_text().splitlines()[1:]:
        cells = dict(zip(COLUMNS, line.split(",")))
        assert cells["converged"] == "false" and cells["c1"] == ""
