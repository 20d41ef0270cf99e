"""Drives one workload: timed iterations, cold processes, start-up probes and
traced iterations, with the correctness checks that go with them."""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from seqrisk import cli

from catalog import PER_LAYER, TARGETS
from tracer import Tracer
from workloads import Checks

PROBE = Path(__file__).resolve().parent / "probe.py"
IMPORT_REPEATS = 3
TRACED_ITERATIONS = 2  # two, so the trace counts can be checked to repeat


@dataclass
class Traced:
    wall: float
    summary: dict
    spans: dict
    bytes_written: int
    missing: tuple  # targets absent at this commit; their layers report 0 calls


class Runner:
    """One workload at one seed.  Artifacts go under ``out/<workload>``."""

    def __init__(self, workload, seed: int, smoke: bool, root: Path, out: Path):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.root = root
        self.dir = out / workload.name
        self.inputs = self.dir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        workload.prepare(self.inputs)
        self.checks = Checks()
        self.child_env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.bytes_written = 0  # artifact bytes of the latest iteration
        self.info: dict = {}  # raw samples and context for the result record
        self._reference: dict = {}

    def _commands(self, where: str, smoke: bool):
        out = self.dir / where
        out.mkdir(parents=True, exist_ok=True)
        return self.workload.commands(self.inputs, out, self.seed, smoke)

    # -- the two kinds of run ---------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        """Untraced run: rounds of a start-up probe, a warmed in-process
        iteration and one command as a cold process, back to back for
        ``seconds``.  Interleaving spreads every metric's samples over the
        whole run, so that a stretch of slow machine time moves all of them
        a little instead of one of them a lot."""
        argvs = self._commands("cold", self.smoke)
        setups: list[float] = []
        walls: list[float] = []
        colds: list[list[float]] = [[] for _ in argvs]
        deadline = time.perf_counter() + seconds
        # at least one round per command, so that each one runs cold
        while len(walls) < len(argvs) or time.perf_counter() < deadline:
            k = len(walls) % len(argvs)
            setups.append(self.setup())
            walls.append(self.iteration())
            colds[k].append(self.cold(argvs[k]))
        wall = statistics.median(walls)
        self.info.update(wall_s_each=walls, setup_s_each=setups, cold_s_each=colds,
                         # pool workers, probes, cold CLI processes and their pools
                         children_peak_rss_mb=resource.getrusage(
                             resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
        return {
            "setup_s": statistics.median(setups),
            "cold_s": sum(statistics.median(c) for c in colds),
            "wall_s": wall,
            "traj_per_s": self.workload.trajectories(self.smoke) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self, seconds: float) -> dict:
        """Traced run: untraced iterations as the baseline, one at a single
        worker, then traced iterations whose counts must repeat."""
        walls = self.loop(seconds)
        os.environ["SEQRISK_WORKERS"] = "1"
        try:
            one_worker = self.iteration()
        finally:
            del os.environ["SEQRISK_WORKERS"]
        traced = [self.traced_iteration() for _ in range(TRACED_ITERATIONS)]
        self.check_counts_repeat(traced)
        imports = self.import_times(1 if self.smoke else IMPORT_REPEATS)
        wall = statistics.median(walls)
        values = layer_metrics(traced, wall, one_worker / wall, imports)
        listed = {name for name, *_ in PER_LAYER}
        self.info.update(
            wall_s_each=walls, one_worker_wall_s=one_worker,
            traced_wall_s=[t.wall for t in traced], targets_missing=traced[0].missing,
            spans=str(self.write_spans(traced)),
            unlisted={k: v for k, v in values.items() if k not in listed})
        return values

    # -- timed work -----------------------------------------------------------

    def iteration(self, where: str = "inproc", smoke: bool | None = None) -> float:
        """Run the workload's commands in this process; returns the wall time."""
        smoke = self.smoke if smoke is None else smoke
        argvs = self._commands(where, smoke)
        codes = []
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in argvs:
                try:
                    codes.append(cli.main(argv))
                except Exception:  # a crash is a failed operation, not a dead run
                    codes.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        self._record(argvs, codes, smoke)
        return wall

    def loop(self, seconds: float) -> list[float]:
        """Closed loop with one client: iterations back to back for ``seconds``."""
        walls: list[float] = []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            walls.append(self.iteration())
        return walls

    def traced_iteration(self) -> Traced:
        with Tracer(TARGETS) as tracer:
            wall = self.iteration()
        missing = tuple(t.path for t in TARGETS if t.path not in tracer.installed)
        return Traced(wall, tracer.summary(), tracer.spans(), self.bytes_written, missing)

    def cold(self, argv: list[str]) -> float:
        """Wall time of one command as a fresh ``python -m seqrisk``."""
        t0 = time.perf_counter()
        proc = self._child(["-m", "seqrisk", *argv])
        wall = time.perf_counter() - t0
        code = f"exit {proc.returncode}: {proc.stderr[-2000:]}" if proc.returncode else 0
        self._record([argv], [code], self.smoke)
        return wall

    def setup(self) -> float:
        """Time from starting a fresh process until it is ready to make the
        first command's first library call."""
        argv = self._commands("probe", self.smoke)[0]
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(PROBE), *argv], cwd=self.root,
                              env=self.child_env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            ready = proc.stdout.read(1)
            took = time.perf_counter() - t0
            _, err = proc.communicate()
        self.checks.check(proc.returncode == 0 and ready == b"r",
                          f"setup probe failed: {err[-2000:]!r}")
        return took

    def import_times(self, repeats: int) -> tuple[float, float]:
        """Median ``import seqrisk`` and scipy import times from ``-X importtime``."""
        pairs = []
        for _ in range(repeats):
            proc = self._child(["-X", "importtime", "-c", "import seqrisk"])
            self.checks.check(proc.returncode == 0, f"import probe failed: {proc.stderr[-2000:]}")
            pairs.append(parse_importtime(proc.stderr))
        return (statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs))

    def _child(self, args):
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.child_env,
                              capture_output=True, text=True)

    # -- correctness ----------------------------------------------------------

    def _record(self, argvs, codes, smoke) -> None:
        """Check exit codes, and that artifacts repeat byte for byte on one seed."""
        self.bytes_written = 0
        for argv, code in zip(argvs, codes):
            out = Path(argv[argv.index("--out") + 1])
            if not self.checks.check(code == 0, f"seqrisk {' '.join(argv)}: {code}"):
                continue
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            artifacts = manifest["artifacts"]
            self.bytes_written += sum((out.parent / name).stat().st_size for name in artifacts)
            reference = self._reference.setdefault((smoke, out.name), artifacts)
            if reference is not artifacts:
                self.checks.check(artifacts == reference,
                                  f"{out.name}: sha256 differs from the first iteration")

    def check_outputs(self) -> None:
        try:
            self.workload.check(self.checks, self.inputs, self.dir / "inproc",
                                self.seed, self.smoke)
        except Exception:
            self.checks.check(False, "output check crashed:\n" + traceback.format_exc())

    def check_counts_repeat(self, traced: list[Traced]) -> None:
        counts = [_counts(t) for t in traced]
        for other in counts[1:]:
            diff = {k: (counts[0][k], other[k]) for k in counts[0] if counts[0][k] != other[k]}
            self.checks.check(not diff, f"trace counts differ between runs on one seed: {diff}")

    def write_spans(self, traced: list[Traced]) -> Path:
        """All traced iterations' spans in one file; ``iteration`` tells them apart."""
        cols: dict = {k: [] for k in traced[0].spans}
        cols["iteration"] = []
        offset = 0
        for i, t in enumerate(traced):
            for k, v in t.spans.items():
                cols[k].append(np.where(v >= 0, v + offset, v) if k == "parent" else v)
            cols["iteration"].append(np.full(t.spans["layer"].size, i, dtype=np.int8))
            offset += t.spans["layer"].size
        path = self.dir / "spans.npz"
        np.savez(path, layer_names=np.array(list(traced[0].summary)),
                 **{k: np.concatenate(v) for k, v in cols.items()})
        return path


def _counts(t: Traced) -> dict:
    out = {f"{layer}.calls": v["calls"] for layer, v in t.summary.items()}
    out["seqmodel.steps"] = t.summary["seqmodel.sample_trajectory"]["amount"]
    out["experiments.batch_sample.traj"] = t.summary["experiments.batch_sample"]["amount"]
    out["oracle.enumerate.rejected"] = t.summary["oracle.enumerate"]["raised"]
    out["cli.bytes_written"] = t.bytes_written
    return out


def layer_metrics(traced: list[Traced], untraced_wall: float, pool_speedup: float,
                  imports: tuple[float, float]) -> dict:
    """Every per-layer value, keyed by metric name.

    Counts come from the first traced iteration (the others must repeat
    them exactly); times are medians over the traced iterations.
    """
    def med(layer):
        return statistics.median(t.summary[layer]["self_s"] for t in traced)

    values = _counts(traced[0])
    values.update({f"{layer}.self_s": med(layer) for layer in traced[0].summary})
    steps = values["seqmodel.steps"]
    traj = values["experiments.batch_sample.traj"]
    batches = values["experiments.batch_sample.calls"]
    chains = values["experiments.random_chain.calls"]
    values.update({
        "import.seqrisk_s": imports[0],
        "import.scipy_s": imports[1],
        "seqmodel.us_per_step": 1e6 * med("seqmodel.sample_trajectory") / steps if steps else 0.0,
        "estimators.pool_speedup": pool_speedup,
        "experiments.dp_per_chain": values["experiments.reach_dp.calls"] / chains if chains else 0.0,
        "experiments.batch_sample.mean_batch": traj / batches if batches else 0.0,
        "trace.overhead_frac": statistics.median(t.wall for t in traced) / untraced_wall - 1.0,
        "trace.coverage": statistics.median(
            sum(v["self_s"] for v in t.summary.values()) / t.wall for t in traced),
    })
    return values


def parse_importtime(text: str) -> tuple[float, float]:
    """(``seqrisk`` cumulative import seconds, seconds in outermost scipy imports)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cumulative = int(fields[1])
        except (IndexError, ValueError):  # the header line
            continue
        raw = fields[2].rstrip()
        name = raw.lstrip()
        entries.append((len(raw) - len(name), name, cumulative))
    seqrisk_us = sum(c for _, name, c in entries if name == "seqrisk")
    scipy_us = 0
    enclosing: list = []  # (depth, inside scipy) of the entries around this one
    # the log lists children before their parent; reversed, parents come first
    for depth, name, cumulative in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        inside = bool(enclosing) and enclosing[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += cumulative
        enclosing.append((depth, inside or is_scipy))
    return seqrisk_us / 1e6, scipy_us / 1e6
