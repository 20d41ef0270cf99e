"""The benchmark's own test: ``python -m pytest bench``.

Runs every workload at its smoke size through the same code path as a
measured run and checks that each metric ``BENCHMARK.json`` names is
emitted with its unit and that the correctness gate ran; then checks the
tracer on small synthetic call trees.
"""

import json
import multiprocessing
import subprocess
import sys
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the harness imports seqrisk from the checkout

import catalog  # noqa: E402
from harness import parse_importtime  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def test_benchmark_json_is_generated_from_catalog():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == catalog.benchmark_json()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [name for name, _ in catalog.WORKLOADS])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    specs = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, *_ in specs}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- tracer -------------------------------------------------------------------


def leaf(x):
    return x + 1


def chunk(lo, hi):
    return [leaf(i) for i in range(lo, hi)]


def pooled(n):
    # forked like the library's pool: a worker inherits the installed patches
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(chunk, 0, n // 2), pool.submit(chunk, n // 2, n)]
        return [x for f in futures for x in f.result()]


def test_missing_target_counts_zero_and_patches_are_restored():
    mod = types.ModuleType("fake_layer")
    mod.inner = lambda: None
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    sys.modules["fake_layer"] = mod
    try:
        original = mod.inner
        targets = [Target("outer", "fake_layer.outer"), Target("inner", "fake_layer.inner"),
                   Target("gone", "fake_layer.deleted_later")]
        with Tracer(targets) as tracer:
            mod.outer()
        assert mod.inner is original
        summary = tracer.summary()
        assert summary["outer"]["calls"] == 1
        assert summary["inner"]["calls"] == 3
        assert summary["gone"]["calls"] == 0
        spans = tracer.spans()
        # in one process, self times add up to the top-level span's duration
        total = sum(v["self_s"] for v in summary.values())
        assert total == pytest.approx(spans["end"][0] - spans["start"][0], abs=1e-9)
    finally:
        del sys.modules["fake_layer"]


def test_pool_worker_spans_are_merged_into_the_parent():
    name = __name__
    targets = [Target("pool", f"{name}.pooled"), Target("chunk", f"{name}.chunk", ships=True),
               Target("leaf", f"{name}.leaf")]
    with Tracer(targets) as tracer:
        assert pooled(40) == list(range(1, 41))
    summary = tracer.summary()
    assert summary["pool"]["calls"] == 1
    assert summary["chunk"]["calls"] == 2
    assert summary["leaf"]["calls"] == 40
    spans = tracer.spans()
    pool_idx = 0
    chunks = spans["layer"] == tracer.layers.index("chunk")
    assert (spans["parent"][chunks] == pool_idx).all()
    assert (spans["proc"][chunks] != spans["proc"][pool_idx]).all()
    assert 0 <= summary["pool"]["self_s"] <= spans["end"][pool_idx] - spans["start"][pool_idx]


def test_parse_importtime_counts_outermost_scipy_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        20 |         70 |     scipy",
        "import time:       300 |        300 |         scipy.special",
        "import time:       400 |        700 |       scipy.stats",
        "import time:        10 |        880 |   seqrisk.oracle",
        "import time:         5 |        900 | seqrisk",
    ])
    assert parse_importtime(log) == (900e-6, 770e-6)
