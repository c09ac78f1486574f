"""The benchmark's own tests: declared metrics, wrapper coverage, oracles.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.  The
coverage test makes one short traced run per workload, two minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, AmrAdvect, Checks, ParticlePic  # noqa: E402


def _load(name):
    with open(name) as fh:
        return json.load(fh)


BENCH = _load(os.path.join(ROOT, "BENCHMARK.json"))
INTERACTIONS = _load(os.path.join(HERE, "interactions.json"))["layers"]


def test_benchmark_json_matches_what_runs_report():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == layers.declared()


def test_interaction_map_covers_every_wrapper_and_metric():
    spans = {s for layer in INTERACTIONS.values() for s in layer["spans"]}
    assert spans == {name for name, _, _ in tracing.TARGETS} | {"fabarray.plan_build"}
    mapped = [m for layer in INTERACTIONS.values() for m in layer["metrics"]]
    declared = [name for name, _, _ in layers.declared()]
    assert sorted(mapped) == sorted(declared)
    for layer in INTERACTIONS.values():
        assert set(layer["flat_on"]) <= set(WORKLOADS)
        for move in layer["moves"]:
            assert move["workload"] in WORKLOADS


@pytest.fixture(scope="module")
def traced_records():
    out = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", "3", "--seconds", "8", "--trace", "1"],
            capture_output=True, text=True, cwd=ROOT, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        out[name] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_wrapper_coverage(traced_records, workload):
    record, result = traced_records[workload]
    assert result["correct"], record["checks"]["failures"]
    assert set(result["metrics"]) == {name for name, _, _ in layers.declared()}
    assert record["trace"]["missing_wrappers"] == []
    calls = record["trace"]["calls"]
    metrics = result["metrics"]
    for layer, spec in INTERACTIONS.items():
        for span, exercised_on in spec["spans"].items():
            if workload in exercised_on:
                assert calls.get(span, 0) > 0, f"{span} recorded no call on {workload}"
            if workload in spec["flat_on"]:
                assert calls.get(span, 0) == 0, f"{span} called on {workload}, flat there"
        for name in spec.get("zero_on", {}).get(workload, ()):
            assert metrics[name]["value"] == 0, f"{name} is not 0 on {workload}"


def _fresh(cls, seed=5):
    checks = Checks()
    wl = cls(seed, checks, workdir=None)
    wl.setup()
    return wl, checks


def test_oracle_catches_a_missing_reflux():
    wl, checks = _fresh(AmrAdvect)
    wl.solver.use_reflux = False
    for i in range(1, 5):
        wl.step()
        if i % wl.rebuild_every == 0:
            wl.rebuild()
        wl.after(i)
    assert checks.failed > 0


def test_oracle_catches_a_lost_particle():
    wl, checks = _fresh(ParticlePic)
    wl.step()
    tile = next(t for t in wl.s["pc"].tiles.values() if t.size)
    keep = np.ones(tile.size, dtype=bool)
    keep[0] = False
    tile.keep(keep)
    wl.after(1)
    assert checks.failed == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "amr-advect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
