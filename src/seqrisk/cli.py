"""Command-line entry point.

Subcommands: ``validate``, ``estimate``, ``oracle`` (``prob`` /
``dispersion`` / ``bijection``), ``sweep``, ``distribution``, ``cohort``.
Single-value queries print to standard output; tables, plots and
``estimate`` reports (``<out>`` and its ``<out>.f64`` values) go to
files named by ``--out``.  A command renders every file before it writes
any, so one that fails while rendering leaves no partial artifacts; a
table SVG with nothing to plot is skipped with a note on standard error.
Each file is written atomically (temp file + rename), and last comes a
``<out>.manifest.json`` recording the configuration, seed, artifact
checksums, the wall-clock duration of the whole command, the seqrisk and
numpy versions, and the peak resident set size of the process.  A
``cohort`` manifest adds ``stage_seconds``: the seconds spent calibrating,
sampling, in the AUROC bootstrap, in the summary metrics and rendering
and writing the artifacts.  A ``sweep`` manifest adds the same for
calibrating, sampling, enumerating the exact variances (not on the
``sample_count`` axis) and writing, each summed over the points.

Exit codes: 0 success, 2 configuration error, 3 model validation failure,
4 infeasible experiment point, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, experiments
from .errors import CalibrationError, EmptyPlotError, ModelValidationError, SeqriskError
from .estimators import CLIP_NONE, CLIP_POLICIES, KINDS, estimate
from .oracle import dispersion_probability, exact_bijection_check, exact_outcome_probability
from .seqmodel import MarkovModel
from .svgplot import table_plot


def _load_model(path: str) -> MarkovModel:
    """Parse a chain file; an invalid matrix raises ModelValidationError."""
    return MarkovModel.from_json(Path(path).read_text())


def _chain_spec(args, default=None) -> experiments.ChainSpec:
    """The chain of the ``--spec`` file, else ``default``.

    ``--seed``, when given, replaces the chain's seed; otherwise the chain
    keeps its own (a spec file's ``seed``, else 0).  ``args.seed`` becomes
    the seed used, which the command and its manifest read.
    """
    spec = default
    if args.spec:
        spec = experiments.ChainSpec.from_dict(json.loads(Path(args.spec).read_text()))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    args.seed = spec.seed
    return spec


def _resolve_model(args) -> MarkovModel:
    if args.model is not None:
        if args.seed is None:
            args.seed = 0
        return _load_model(args.model)
    return experiments.random_chain(_chain_spec(args))


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _write(args, files: dict, stage_seconds=None, started=None) -> None:
    """Write every rendered file (Path -> bytes), then the first file's manifest.

    Non-empty ``stage_seconds`` go into the manifest plus ``write``: the
    seconds from ``started`` until the files are written.
    """
    for path, data in files.items():
        _atomic_write(path, data)
        print(f"wrote {path}", file=sys.stderr)
    written = time.perf_counter()
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in ("func", "started")},
        "seed": args.seed,
        "artifacts": {path.name: hashlib.sha256(data).hexdigest()
                      for path, data in files.items()},
        "duration_seconds": time.perf_counter() - args.started,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "versions": {"seqrisk": __version__, "numpy": np.__version__},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if stage_seconds:
        manifest["stage_seconds"] = {**stage_seconds, "write": written - started}
    first = next(iter(files))
    _atomic_write(first.with_name(first.name + ".manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True).encode())


def _cmd_validate(args) -> int:
    _load_model(args.model)
    print("ok")
    return 0


def _cmd_estimate(args) -> int:
    model = _resolve_model(args)
    report = estimate(model, args.kind, args.n, args.seed, clip_policy=args.clip)
    print(repr(report.mean))
    if args.out:
        _write(args, report.files(args.out))
    return 0


def _cmd_oracle_prob(args) -> int:
    model = _load_model(args.model)
    print(repr(exact_outcome_probability(model)))
    return 0


def _cmd_oracle_dispersion(args) -> int:
    value = dispersion_probability(args.n, args.p_base, args.p_elev)
    print(f"{value:.4f}")
    return 0


def _cmd_oracle_bijection(args) -> int:
    model = _load_model(args.model)
    p_a, p_b = exact_bijection_check(model)
    print(f"{p_a!r} {p_b!r}")
    return 0


def _parse_grid(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


#: grid and replications of each sweep axis when no option sets them
_SWEEP_DEFAULTS = {
    "probability": (experiments.PROBABILITY_GRID, experiments.DEFAULT_REPLICATIONS),
    "spontaneity": (experiments.SPONTANEITY_GRID, experiments.DEFAULT_REPLICATIONS),
    "sample_count": (experiments.SAMPLE_COUNT_GRID, experiments.SAMPLE_COUNT_REPLICATIONS),
}


def _write_table(args, table, **svg_kw) -> None:
    """Render the table as CSV, plus an SVG plot under ``--format svg``,
    then write it; a table that timed its stages gets them, plus ``write``,
    in the manifest."""
    started = time.perf_counter()
    out = Path(args.out)
    files = {out: table.to_csv_text().encode()}
    if args.format == "svg":
        svg = out.with_suffix(".svg")
        try:
            files[svg] = table_plot(table, **svg_kw).encode()
        except EmptyPlotError:
            print(f"skipped {svg}: nothing to plot", file=sys.stderr)
    _write(args, files, table.stage_seconds, started)


def _cmd_sweep(args) -> int:
    # the probability axis calibrates each point to its grid value
    base = _chain_spec(args, experiments.ChainSpec(
        experiments.DEFAULT_CHAIN_STATES, 1.0, experiments.DEFAULT_HORIZON_STEPS,
        equal_transitions=True,
        target_probability=None if args.axis == "probability" else 0.5,
    ))
    grid, replications = _SWEEP_DEFAULTS[args.axis]
    grid = _parse_grid(args.grid) if args.grid is not None else list(grid)
    replications = args.replications if args.replications is not None else replications
    table = experiments.variance_sweep(args.axis, grid, base, replications)
    _write_table(
        args, table, task_prefix=f"{args.axis}=", statistic="variance",
        title=f"estimator variance vs {args.axis}",
        xlabel=args.axis, ylabel="variance",
        logx=args.axis == "sample_count", logy=args.axis == "sample_count",
    )
    return 0


def _cmd_distribution(args) -> int:
    experiments._check_bins(args.bins)
    spec = _chain_spec(args, experiments.ChainSpec(
        experiments.DEFAULT_CHAIN_STATES, 1.0, experiments.DEFAULT_HORIZON_STEPS,
        target_probability=0.2, equal_transitions=False,
    ))
    result = experiments.estimate_distribution_experiment(
        spec, args.n_estimates, args.samples
    )
    _write(args, {Path(args.out): result.to_csv_text(bins=args.bins).encode()})
    return 0


def _cmd_cohort(args) -> int:
    template = experiments.ChainSpec(
        args.states, args.spontaneity, args.horizon,
        equal_transitions=args.transitions == "equal",
    )
    spec = experiments.CohortSpec(
        n_patients=args.patients,
        chain_template=template,
        n_timelines=args.timelines,
        bootstrap_rounds=args.rounds,
        seed=args.seed,
    )
    table = experiments.synthetic_cohort_eval(spec)
    _write_table(
        args, table, task_prefix="cohort", statistic="auroc", x_from_task=False,
        title="AUROC vs sample count", xlabel="samples", ylabel="AUROC",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqrisk",
        description="Outcome-probability estimators for token-sequence models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # commands that read --spec fall back on the file's seed
    spec_seed = dict(type=int, default=None,
                     help="random seed (default: the --spec file's seed, else 0)")

    def artifact(p):
        p.add_argument("--out", required=True, help="artifact path")

    def table(p):
        artifact(p)
        p.add_argument("--format", choices=("csv", "svg"), default="csv")

    p = sub.add_parser("validate", help="check a chain file for stochasticity")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("estimate", help="run one estimator on a model")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model")
    source.add_argument("--spec", help="ChainSpec JSON to generate a model from")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clip", choices=CLIP_POLICIES, default=CLIP_NONE)
    p.add_argument("--seed", **spec_seed)
    p.add_argument("--out", help="report path; the values go to <out>.f64")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("oracle", help="exact queries")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("prob", help="exact outcome probability of a chain")
    q.add_argument("--model", required=True)
    q.set_defaults(func=_cmd_oracle_prob)
    q = osub.add_parser("dispersion", help="P(elevated case outranks baseline)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p-base", type=float, required=True, dest="p_base")
    q.add_argument("--p-elev", type=float, required=True, dest="p_elev")
    q.set_defaults(func=_cmd_oracle_dispersion)
    q = osub.add_parser("bijection", help="standard vs outcome-excluded probability")
    q.add_argument("--model", required=True)
    q.set_defaults(func=_cmd_oracle_bijection)

    p = sub.add_parser("sweep", help="variance sweep along one axis")
    p.add_argument("--axis", choices=experiments.AXES, required=True)
    p.add_argument("--grid", help="comma-separated grid values")
    p.add_argument("--spec", help="base ChainSpec JSON")
    p.add_argument("--replications", type=int)
    p.add_argument("--seed", **spec_seed)
    table(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("distribution", help="histogram of repeated estimates")
    p.add_argument("--spec", help="ChainSpec JSON")
    p.add_argument("--n-estimates", type=int, default=10_000, dest="n_estimates")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--seed", **spec_seed)
    artifact(p)
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("cohort", help="synthetic cohort evaluation")
    p.add_argument("--patients", type=int, default=2000)
    p.add_argument("--timelines", type=int, default=100)
    p.add_argument("--rounds", type=int, default=40)
    p.add_argument("--states", type=int, default=6)
    p.add_argument("--spontaneity", type=float, default=1.0)
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--transitions", choices=("equal", "random"), default="equal")
    p.add_argument("--seed", type=int, default=0)
    table(p)
    p.set_defaults(func=_cmd_cohort)

    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    args.started = started  # manifests time the whole command
    try:
        return args.func(args)
    except ModelValidationError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return 3
    except CalibrationError as exc:
        print(f"infeasible experiment point: {exc}", file=sys.stderr)
        return 4
    except (FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SeqriskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
