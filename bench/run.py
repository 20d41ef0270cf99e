"""seqrisk benchmark.

    python3 bench/run.py --workload {estimate,sweep,cohort} --seed N \\
        --seconds S --trace {0,1} [--smoke]
    python3 bench/run.py --write-benchmark-json

Each workload is a closed loop with one client: an iteration, the
workload's CLI commands run in this process through ``seqrisk.cli.main``,
starts only after the previous one has ended, for ``--seconds`` seconds.
The seed goes to every command.  ``--trace 0`` reports the end-to-end
metrics from rounds of a start-up probe, one iteration and one command run
as a cold process; ``--trace 1`` is a separate run that wraps the
library's module-level functions and reports per-layer metrics.  Every run
checks the artifacts it produced.  Readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs every step at
a tiny size.

Run it from a source checkout: the package is imported from ``src/``.
Artifacts, result records and traced spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")  # relative to ROOT, where the run works
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json at the repository root and exit")
    args = p.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    # pinned before numpy loads, here and in every child process, so that
    # only the estimate pool uses a second core
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    os.environ.pop("SEQRISK_WORKERS", None)  # the CLI's default worker count applies

    import catalog

    args = parse_args(argv, [name for name, _ in catalog.WORKLOADS])
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(catalog.benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "seqrisk" / "__init__.py").is_file():
        print(f"no seqrisk source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import seqrisk

    if Path(seqrisk.__file__).resolve().parent != SRC / "seqrisk":
        print(f"imported seqrisk from {seqrisk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import Runner
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seconds = catalog.RUN_SECONDS if args.seconds is None else args.seconds
    runner = Runner(workload, args.seed, args.smoke, ROOT, OUT)
    runner.iteration("warmup", smoke=True)
    if args.trace == 0:
        values, specs = runner.end_to_end(seconds), catalog.END_TO_END
    else:
        values, specs = runner.per_layer(seconds), catalog.PER_LAYER
    runner.check_outputs()
    report(runner, args, seconds, {name: {"value": values[name], "unit": unit}
                                   for name, unit, *_ in specs})
    return 0


def report(runner, args, seconds, metrics) -> None:
    """Write the result record, print readable lines, then the JSON result."""
    checks = runner.checks
    failed = len(checks.failures)
    env = environment(runner.workload)
    path = runner.dir / f"result-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": seconds, "env": env, "info": runner.info,
        "metrics": metrics, "attempted": checks.attempted, "failures": checks.failures,
    }, indent=1))

    print(f"seqrisk benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={seconds}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env))
    print(f"iterations {len(runner.info['wall_s_each'])}, record {path}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']!r} {m['unit']}")
    print(f"  {'failed_frac':42s} {failed / max(checks.attempted, 1)!r} "
          f"({failed} of {checks.attempted} checks)")
    for failure in checks.failures[:20]:
        print("FAILED " + failure.splitlines()[0])
    print(json.dumps({"correct": failed == 0 and checks.attempted > 0,
                      "attempted": max(checks.attempted, 1), "failed": failed,
                      "metrics": metrics}))


def environment(workload) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "workers": os.cpu_count() if workload.pooled else 1,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        **{var: os.environ[var] for var in BLAS_THREADS},
    }


def _commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


if __name__ == "__main__":
    sys.exit(main())
