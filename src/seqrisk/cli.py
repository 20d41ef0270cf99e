"""Command-line entry point.

Subcommands: ``validate``, ``estimate``, ``oracle`` (``prob`` /
``dispersion`` / ``bijection``), ``sweep``, ``distribution``, ``cohort``.
Single-value queries print to standard output; tables, plots and
``estimate`` reports (``<out>`` and its ``<out>.f64`` values) go to
files named by ``--out``, written atomically (temp file + rename) and
accompanied by a ``<out>.manifest.json`` recording the configuration,
seed, artifact checksums, the wall-clock duration of the whole command,
the seqrisk and numpy versions, and the peak resident set size of the
process.  A ``cohort`` manifest adds ``stage_seconds``: the seconds spent
calibrating, sampling, in the AUROC bootstrap, in the summary metrics
and writing the artifacts.

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
from .errors import CalibrationError, ModelValidationError, SeqriskError
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


class _Artifacts:
    """Atomic artifact writing plus manifest bookkeeping for one command."""

    def __init__(self, args):
        self.command = args.command
        self.config = _config_dict(args)
        self.seed = args.seed
        self.files: dict[str, str] = {}
        self.t0 = args.started

    def write_bytes(self, path: Path, data: bytes) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        self.files[path.name] = hashlib.sha256(data).hexdigest()
        print(f"wrote {path}", file=sys.stderr)

    def write_text(self, path: Path, text: str) -> None:
        self.write_bytes(path, text.encode())

    def finish(self, out: Path, stage_seconds=None) -> None:
        manifest = {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "artifacts": self.files,
            "duration_seconds": time.perf_counter() - self.t0,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "versions": {"seqrisk": __version__, "numpy": np.__version__},
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if stage_seconds:
            manifest["stage_seconds"] = stage_seconds
        out = Path(out)
        path = out.with_name(out.name + ".manifest.json")
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(tmp, path)


def _config_dict(args) -> dict:
    skip = {"func", "started"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _cmd_validate(args) -> int:
    _load_model(args.model)
    print("ok")
    return 0


def _cmd_estimate(args) -> int:
    model = _resolve_model(args)
    report = estimate(model, args.kind, args.n, args.seed, clip_policy=args.clip)
    print(repr(report.mean))
    if args.out:
        art = _Artifacts(args)
        for path, data in report.files(args.out).items():
            art.write_bytes(path, data)
        art.finish(Path(args.out))
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


def _write_table(args, table, *, svg_kw=None) -> None:
    """Write the table's artifacts; a table that timed its stages gets them,
    plus ``write``, in the manifest's ``stage_seconds``."""
    started = time.perf_counter()
    out = Path(args.out)
    art = _Artifacts(args)
    if args.format == "json":
        art.write_text(out, table.to_json())
    else:
        art.write_text(out, table.to_csv_text())
        if args.format == "svg" and svg_kw:
            art.write_text(out.with_suffix(".svg"), table_plot(table, **svg_kw))
    stages = dict(table.stage_seconds)
    if stages:
        stages["write"] = time.perf_counter() - started
    art.finish(out, stages)


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
    svg_kw = dict(
        task_prefix=f"{args.axis}=", statistic="variance",
        title=f"estimator variance vs {args.axis}",
        xlabel=args.axis, ylabel="variance",
        logx=args.axis == "sample_count", logy=args.axis == "sample_count",
    )
    _write_table(args, table, svg_kw=svg_kw)
    return 0


def _cmd_distribution(args) -> int:
    spec = _chain_spec(args, experiments.ChainSpec(
        experiments.DEFAULT_CHAIN_STATES, 1.0, experiments.DEFAULT_HORIZON_STEPS,
        target_probability=0.2, equal_transitions=False,
    ))
    result = experiments.estimate_distribution_experiment(
        spec, args.n_estimates, args.samples
    )
    out = Path(args.out)
    art = _Artifacts(args)
    art.write_text(out, result.to_csv_text(bins=args.bins))
    art.finish(out)
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
    svg_kw = dict(
        task_prefix="cohort", statistic="auroc", x_from_task=False,
        title="AUROC vs sample count", xlabel="samples", ylabel="AUROC",
    )
    _write_table(args, table, svg_kw=svg_kw)
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
        p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

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
    except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
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
