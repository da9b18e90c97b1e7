"""Smoke tests of the benchmark: every workload path, check and the traced run.

Run with ``python -m pytest -q perfbench`` from the repository root.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for p in (str(ROOT / "src"), str(BENCH_DIR)):
    if p not in sys.path:
        sys.path.insert(0, p)

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nanojunction import superop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_BUILDS = {"report_m34": 1, "stopping_rcme": 32, "cli_sweep": 9}


def _run(name, trace, tmp_path, seed=0):
    return harness.run(name, seed, 0.2, trace, size="smoke", setup_samples=2,
                       out_dir=tmp_path)


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_untraced_smoke_run_is_correct(name, seed, tmp_path):
    res = _run(name, False, tmp_path, seed)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] >= harness.MIN_OPS
    assert set(res["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke_run_reports_every_layer(name, tmp_path):
    res = _run(name, True, tmp_path)
    assert res["correct"]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(m) == set(harness.LAYER_UNITS)
    assert m["superop.builds"] == SMOKE_BUILDS[name]
    assert m["rc.terms"] == 26
    assert m["superop.lu_s"] > 0 and m["superop.assemble_bytes"] > 0
    assert (m["cli.points"] > 0) == (name == "cli_sweep")
    assert (m["fcs.c2_s"] > 0) == (name != "stopping_rcme")
    assert list(tmp_path.glob(f"spans-{name}-seed0.jsonl"))


def test_wrappers_leave_the_library_unpatched(tmp_path):
    before = {}
    for mod, attr, _ in spans.WRAPPED:
        for bound_in, name in spans.bindings(getattr(mod, attr)):
            before[(bound_in.__name__, name)] = getattr(bound_in, name)
    lu = superop.Liouvillian.bordered_lu
    _run("cli_sweep", True, tmp_path)
    after = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
    assert after == before
    assert superop.Liouvillian.bordered_lu is lu
    assert len(before) > len(spans.WRAPPED)   # names imported elsewhere were found


def test_reference_mismatch_is_a_failure():
    ref = {"c1": 1.0, "rows": [1.0, 2.0]}
    assert workloads.reference_failures({"c1": 1.0, "rows": [1.0, 2.0]}, ref, "x") == []
    assert workloads.reference_failures({"c1": 1.0 + 1e-6, "rows": [1.0, 2.0]}, ref, "x")
    assert workloads.reference_failures({"c1": 1.0, "rows": [1.0, 2.1]}, ref, "x")


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_sweep",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
