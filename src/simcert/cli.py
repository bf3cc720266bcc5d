"""Command-line driver: gen | train | certify | verify.

Exit codes: 0 success, 2 invalid flags, 3 I/O failure, 4 data validation
failure, 5 coverage verification failed.  Matrices travel as headerless
CSV, reports as JSON with the resolved configuration echoed for
auditability; reruns with identical flags produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import _check_delta, certify
from .core import (
    SampleMatrix,
    ValidationError,
    _check_sizes,
    read_matrix_csv,
    validate_distance_matrix,
    write_matrix_csv,
)
from .harness import SyntheticSpec, generate_synthetic, run_coverage_experiment, write_trials_csv
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


def _fail(code: int, message: str) -> int:
    print(f"simcert: error: {message}", file=sys.stderr)
    return code


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    parser.add_argument("--eps", type=float, default=_CFG_DEFAULTS.smoothing_eps)


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
    return SyntheticSpec(
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
        return LinearClass(lambda_cap=args.lambda_cap, k=args.k)
    spec = KernelSpec(
        family=_KERNEL_CHOICES[args.kernel],
        gamma=args.gamma,
        degree=args.degree,
        coef0=args.coef0,
    )
    return KernelClass(kernel=spec, lambda_cap=args.lambda_cap, k=args.k)


def _config_from_flags(args) -> TrainConfig:
    return TrainConfig(
        step_size=args.step_size,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        penalty_lambda=args.penalty,
        smoothing_eps=args.eps,
        seed=args.seed,
    )


def _echo_flags(args, command: str) -> dict:
    payload = {k: v for k, v in vars(args).items() if k != "command"}
    payload["command"] = command
    return payload


def cmd_gen(args) -> int:
    try:
        spec = _spec_from_flags(args)
    except ValidationError as exc:
        return _fail(EXIT_USAGE, str(exc))
    sample, distances, w_true = generate_synthetic(spec)
    try:
        os.makedirs(args.out, exist_ok=True)
        write_matrix_csv(os.path.join(args.out, "features.csv"), sample.values)
        write_matrix_csv(os.path.join(args.out, "distances.csv"), distances.values)
        write_matrix_csv(os.path.join(args.out, "wtrue.csv"), w_true)
        manifest = _echo_flags(args, "gen")
        manifest["files"] = ["features.csv", "distances.csv", "wtrue.csv"]
        _write_json(os.path.join(args.out, "manifest.json"), manifest)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    return EXIT_OK


def _load_problem(args):
    features = read_matrix_csv(args.features)
    raw_distances = read_matrix_csv(args.distances)
    sample = SampleMatrix(features)
    distances = validate_distance_matrix(raw_distances, tol=args.tol)
    _check_sizes(sample, distances)
    return sample, distances


def cmd_train(args) -> int:
    try:
        hclass = _class_from_flags(args)
        config = _config_from_flags(args)
        if args.tol < 0.0:
            raise ValidationError("tol must be nonnegative")
    except ValidationError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        sample, distances = _load_problem(args)
        model, report = train(sample, distances, hclass, config)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    try:
        os.makedirs(args.out, exist_ok=True)
        save_model(model, os.path.join(args.out, "model.json"))
        payload = report.to_dict()
        payload["config"] = _echo_flags(args, "train")
        _write_json(os.path.join(args.out, "train_report.json"), payload)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    return EXIT_OK


def cmd_certify(args) -> int:
    try:
        _check_delta(args.delta)
    except ValidationError as exc:
        return _fail(EXIT_USAGE, str(exc))
    if args.tol < 0.0:
        return _fail(EXIT_USAGE, "tol must be nonnegative")
    try:
        model = load_model(args.model)
        sample, distances = _load_problem(args)
        certificate = certify(model, sample, distances, args.delta)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except (ValidationError, KeyError, json.JSONDecodeError) as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    try:
        os.makedirs(args.out, exist_ok=True)
        payload = certificate.to_dict()
        payload["config"] = _echo_flags(args, "certify")
        _write_json(os.path.join(args.out, "certificate.json"), payload)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        return _fail(EXIT_USAGE, "trials must be >= 1")
    if args.n_holdout is not None and args.n_holdout < 2:
        return _fail(EXIT_USAGE, "n-holdout must be >= 2")
    try:
        _check_delta(args.delta)
        spec = _spec_from_flags(args)
        hclass = _class_from_flags(args)
        config = _config_from_flags(args)
    except ValidationError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        report = run_coverage_experiment(
            spec, hclass, config, args.delta, args.trials, args.n_holdout
        )
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    try:
        os.makedirs(args.out, exist_ok=True)
        payload = report.to_dict()
        payload["config"] = _echo_flags(args, "verify")
        _write_json(os.path.join(args.out, "report.json"), payload)
        write_trials_csv(os.path.join(args.out, "trials.csv"), report)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
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
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
