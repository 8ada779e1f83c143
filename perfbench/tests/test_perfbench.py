"""Tests of the benchmark itself: generators, closed forms, checks, tracing.

Run with the package on the path, e.g. from the repository root:
PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rigidity import data, exactpoly, flatsurf, symdom  # noqa: E402


def _fingerprint(workload_name, seed):
    pool = workloads.make_pool(workloads.make_workload(workload_name), seed)
    out = []
    for rnd in pool:
        for item in rnd:
            if isinstance(item, str):
                out.append(item)
            elif workload_name == "branch_paths":
                out.append((item[0], item[1].entries))
            else:
                out.append(item)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    assert _fingerprint(name, 7) == _fingerprint(name, 7)
    assert _fingerprint(name, 7) != _fingerprint(name, 8)


@pytest.mark.parametrize("name", data.origami_names())
def test_closed_form_census_size(name):
    origami = data.origami(name)
    for L in range(1, 7):
        assert len(flatsurf.saddle_connections(origami, L)) == (
            origami.n * gen.primitive_count(L))


def test_primitive_count_small_disks():
    # (+-1, 0), (0, +-1); then the four diagonals join at L = 2
    assert gen.primitive_count(1) == 4
    assert gen.primitive_count(2) == 8
    assert gen.primitive_count(3) == 16


@pytest.mark.parametrize("name", sorted(gen.BUNDLED_CHARPOLY_K))
def test_construction_k_of_bundled_charpolys(name):
    K, _ = gen.BUNDLED_CHARPOLY_K[name]
    assert symdom.newton_puiseux_index(data.charpoly(name)).K == K


def test_construction_k_of_generated_charpolys():
    rnd = random.Random(3)
    for shapes, unsupported in gen.CHARPOLY_SLOTS:
        if unsupported:
            continue
        P, K, _ = gen.random_charpoly(rnd, shapes)
        assert P.is_monic
        assert symdom.newton_puiseux_index(P).K == K


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_passes_every_check(name):
    workload = workloads.make_workload(name, tiny=True)
    pool = workloads.make_pool(workload, 11)
    records = workloads.run_loop(workload, pool, 0, max_rounds=len(pool))
    assert records
    for label, outcome, _, info, _, _ in records:
        assert outcome in ("verified", "refused"), (label, outcome, info)
    assert any(r[1] == "verified" for r in records)


def test_checks_reject_a_wrong_census():
    workload = workloads.make_workload("flat_census", tiny=True)
    item = workloads.make_pool(workload, 1)[0][0]
    census, decompositions, profile = workload.op(item)
    with pytest.raises(workloads.WrongResult):
        workload.check(item, (census[:-1], decompositions, profile))


def test_tracer_patches_every_caller_and_restores():
    original = exactpoly.rational_roots
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert symdom.rational_roots is not original
        assert exactpoly.rational_roots is not original
        workload = workloads.make_workload("puiseux_charpolys", tiny=True)
        pool = workloads.make_pool(workload, 2)
        records = workloads.run_loop(workload, pool, 0, tracer=tracer, max_rounds=1)
    finally:
        tracer.uninstall()
    assert symdom.rational_roots is exactpoly.rational_roots is original
    metrics, gap = tracing.summarize(tracer.spans)
    assert gap < 1e-9
    assert metrics["bench.op.calls"] == len(records)
    # once from the op, once inside smoothness_report_from_charpoly
    assert metrics["symdom.newton_puiseux_index.calls"] == 2 * len(records)
    assert metrics["exactpoly.discriminant.calls"] >= len(records)
    # the lone triple root is refused in smoothness_report_from_charpoly
    assert metrics["symdom.errors.PuiseuxError"] == sum(r[1] == "refused" for r in records)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat_census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
