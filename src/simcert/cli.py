"""Command-line driver: gen | train | certify | verify.

Exit codes: 0 success, 2 invalid flags, 3 I/O failure, 4 data validation
failure, 5 coverage verification failed.  Each command builds its objects
from the flags, loads, runs and writes, and raises on failure; main alone
maps an error to its exit code and a one-line message on stderr (argparse
exits 2 on its own).  The checks are the library's, each run once, when
its command starts and before any file is read: a flag value the library
rejects is a usage error, rejected data a validation failure.  The file
formats are the library's: matrices travel as headerless CSV (core's CSV
readers and writer), reports and models as strict JSON (core.write_json,
so a report that would hold an infinite or NaN value is a validation
failure too), reports with the resolved configuration echoed for
auditability; reruns with identical flags produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bounds import _check_delta, certify
from .core import (
    SampleMatrix,
    ValidationError,
    _check_tol,
    read_distance_csv,
    read_matrix_csv,
    write_json,
    write_matrix_csv,
)
from .harness import SyntheticSpec, generate_synthetic, run_coverage_experiment, write_trials_csv
from .harness import _check_holdout, _check_trials
from .hypotheses import KernelClass, LinearClass, load_model, save_model
from .kernels import KernelSpec
from .optimizer import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_COVERAGE_FAILED = 5

_CFG_DEFAULTS = TrainConfig()
_KERNEL_CHOICES = {"linear": "linear", "rbf": "rbf", "poly": "polynomial"}


class _UsageError(Exception):
    """A flag value the library rejects."""


def _fail(code: int, message) -> int:
    print(f"simcert: error: {message}", file=sys.stderr)
    return code


def _build(make, **fields):
    """make(**fields) from flag values, a library constructor or check; a
    value the library rejects is a usage error."""
    try:
        return make(**fields)
    except ValidationError as exc:
        raise _UsageError(exc) from exc


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=50, help="number of sample points")
    parser.add_argument("--n", type=int, default=2, help="feature dimension")
    parser.add_argument("--k-true", type=int, default=2, help="hidden map output dimension")
    parser.add_argument("--radius", type=float, default=1.0, help="feature ball radius")
    parser.add_argument("--map-norm", type=float, default=1.0, help="hidden map spectral norm")
    parser.add_argument("--noise", type=float, default=0.0, help="target noise sigma")
    parser.add_argument("--seed", type=int, default=0)


def _add_class_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--class",
        dest="hclass",
        choices=["linear", "kernel"],
        default="linear",
        help="hypothesis class",
    )
    parser.add_argument("--lambda-cap", type=float, default=2.0, help="norm budget")
    parser.add_argument(
        "--kernel", choices=sorted(_KERNEL_CHOICES), default="rbf", help="kernel family"
    )
    parser.add_argument("--gamma", type=float, default=1.0, help="rbf width")
    parser.add_argument("--degree", type=int, default=2, help="polynomial degree")
    parser.add_argument("--coef0", type=float, default=1.0, help="polynomial offset")
    parser.add_argument("--k", type=int, default=None, help="embedding dimension (default min(n, m))")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--penalty", type=float, default=0.0, help="norm penalty weight")
    parser.add_argument("--step-size", type=float, default=_CFG_DEFAULTS.step_size)
    parser.add_argument("--max-iters", type=int, default=_CFG_DEFAULTS.max_iters)
    parser.add_argument("--grad-tol", type=float, default=_CFG_DEFAULTS.grad_tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simcert",
        description="Distance-supervised embedding regression with generalization certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic instance as CSV")
    _add_spec_flags(gen)
    gen.add_argument("--out", default=".", help="output directory")

    tr = sub.add_parser("train", help="fit a hypothesis to CSV data")
    tr.add_argument("--features", required=True)
    tr.add_argument("--distances", required=True)
    _add_class_flags(tr)
    _add_train_flags(tr)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--tol", type=float, default=1e-9, help="distance validation tolerance")
    tr.add_argument("--out", default=".", help="output directory")

    ct = sub.add_parser("certify", help="assemble a generalization certificate")
    ct.add_argument("--model", required=True)
    ct.add_argument("--features", required=True)
    ct.add_argument("--distances", required=True)
    ct.add_argument("--delta", type=float, default=0.05)
    ct.add_argument("--tol", type=float, default=1e-9, help="distance validation tolerance")
    ct.add_argument("--out", default=".", help="output directory")

    vf = sub.add_parser("verify", help="run the bound-coverage experiment")
    _add_spec_flags(vf)
    _add_class_flags(vf)
    _add_train_flags(vf)
    vf.add_argument("--trials", type=int, default=200)
    vf.add_argument("--delta", type=float, default=0.05)
    vf.add_argument("--n-holdout", type=int, default=None, help="holdout size (default 10 m)")
    vf.add_argument("--out", default=".", help="output directory")

    return parser


def _spec_from_flags(args) -> SyntheticSpec:
    return _build(
        SyntheticSpec,
        m=args.m,
        n_features=args.n,
        k_true=args.k_true,
        radius=args.radius,
        map_norm=args.map_norm,
        noise_sigma=args.noise,
        seed=args.seed,
    )


def _class_from_flags(args) -> LinearClass | KernelClass:
    if args.hclass == "linear":
        return _build(LinearClass, lambda_cap=args.lambda_cap, k=args.k)
    spec = _build(
        KernelSpec,
        family=_KERNEL_CHOICES[args.kernel],
        gamma=args.gamma,
        degree=args.degree,
        coef0=args.coef0,
    )
    return _build(KernelClass, kernel=spec, lambda_cap=args.lambda_cap, k=args.k)


def _config_from_flags(args) -> TrainConfig:
    return _build(
        TrainConfig,
        step_size=args.step_size,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        penalty_lambda=args.penalty,
        seed=args.seed,
    )


def cmd_gen(args) -> int:
    spec = _spec_from_flags(args)
    sample, distances, w_true = generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    write_matrix_csv(os.path.join(args.out, "features.csv"), sample.values)
    write_matrix_csv(os.path.join(args.out, "distances.csv"), distances.values)
    write_matrix_csv(os.path.join(args.out, "wtrue.csv"), w_true)
    manifest = {**vars(args), "files": ["features.csv", "distances.csv", "wtrue.csv"]}
    write_json(os.path.join(args.out, "manifest.json"), manifest)
    return EXIT_OK


def _load_problem(args):
    """Sample and targets from the CSV flags; train and certify check that
    their sizes agree."""
    return SampleMatrix(read_matrix_csv(args.features)), read_distance_csv(args.distances, args.tol)


def cmd_train(args) -> int:
    hclass = _class_from_flags(args)
    config = _config_from_flags(args)
    _build(_check_tol, tol=args.tol)
    sample, distances = _load_problem(args)
    model, report = train(sample, distances, hclass, config)
    os.makedirs(args.out, exist_ok=True)
    payload = report.to_dict()
    payload["config"] = vars(args)
    # the report first: a diverged run whose risk overflows writes no model
    write_json(os.path.join(args.out, "train_report.json"), payload)
    save_model(model, os.path.join(args.out, "model.json"))
    return EXIT_OK


def cmd_certify(args) -> int:
    _build(_check_delta, delta=args.delta)
    _build(_check_tol, tol=args.tol)
    model = load_model(args.model)
    sample, distances = _load_problem(args)
    certificate = certify(model, sample, distances, args.delta)
    os.makedirs(args.out, exist_ok=True)
    payload = certificate.to_dict()
    payload["config"] = vars(args)
    write_json(os.path.join(args.out, "certificate.json"), payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _spec_from_flags(args)
    hclass = _class_from_flags(args)
    config = _config_from_flags(args)
    _build(_check_trials, n_trials=args.trials)
    _build(_check_delta, delta=args.delta)
    if args.n_holdout is not None:
        _build(_check_holdout, n_holdout=args.n_holdout)
    report = run_coverage_experiment(spec, hclass, config, args.delta, args.trials, args.n_holdout)
    os.makedirs(args.out, exist_ok=True)
    payload = report.to_dict()
    payload["config"] = vars(args)
    write_json(os.path.join(args.out, "report.json"), payload)
    write_trials_csv(os.path.join(args.out, "trials.csv"), report)
    if not report.passed:
        return _fail(
            EXIT_COVERAGE_FAILED,
            f"coverage {report.coverage_rate:.4f} below 1 - delta = {1.0 - args.delta:.4f}",
        )
    return EXIT_OK


_HANDLERS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "certify": cmd_certify,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        return _fail(EXIT_USAGE, exc)
    except OSError as exc:
        return _fail(EXIT_IO, exc)
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, exc)


if __name__ == "__main__":
    sys.exit(main())
