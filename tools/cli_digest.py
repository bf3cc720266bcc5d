"""Print a sha256 digest of every file the CLI writes on a fixed script.

The script runs simcert.cli.main in a temporary directory with fixed
seeds: for each sample size m, ``gen --m m --n 4 --noise 0.05``, then
``train --max-iters 50`` and ``certify`` for the linear, rbf, poly and
rbf_declined classes on that instance, and a linear ``train`` and
``certify`` (linear_asym) on distances_asym.csv, the targets perturbed
within the default ``--tol`` (_perturb), so that the lines see the
symmetrizing average and the clamp of the distances repair; then
``verify --m 15 --trials 3`` for each class.  rbf_declined
(``--gamma 1e6``) is an RBF kernel so narrow that the Gram matrix's
round-off certificate declines it, so its ``train`` and ``certify`` run
the eigenvalue check.  One ``<file> <sha256>`` line is printed per output
file, every file under the temporary directory, in sorted order.  The
Monte-Carlo estimate, which no command runs, follows in one
``mc/<class> <sha256>`` line per class: the sha256 of
``repr((estimate, standard error))`` of empirical_rademacher_mc (2 sign
draws, 40 inner steps, seed 0) on the first instance (m = 20 by default),
with the class its train flags make.  A JSON
file is hashed after dropping the keys that echo paths (``config``, and
``out`` in ``manifest.json``) and dumping it again with sorted keys and
indent 2, so the lines do not depend on where the directory is.  Two trees
whose programs write the same bytes print the same lines.

``--drift OLD/src`` runs the script once with the package in OLD/src and
once with the one in ``--src``, each in its own Python process (both
packages are named simcert).  For each output, or ``mc/<class>``, whose
digest differs it prints one line per key whose leaves moved, as
``tests/test_equivalence.py --diff`` groups them: a JSON key path with
its list indices dropped (``.trials[].gap``), a CSV column
(``column 3``), or the ``estimate`` or ``std_error`` of a Monte-Carlo
pair.  The line gives the largest relative and the largest absolute
change of the key's numbers, then, if any, how many of its other leaves
differ (a string such as a stop reason, or a leaf only one side has), so
a step count that moved does not hide the round-off of a risk.  A
relative change from 0 is inf.  Trees whose outputs agree print nothing.

Usage:

    python tools/cli_digest.py                      # this tree's src/
    python tools/cli_digest.py --src OTHER/src      # another tree's package
    python tools/cli_digest.py --drift OLD/src      # how far OLD's outputs moved
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]

# (directory name, train/verify class flags)
_CLASSES = [
    ("linear", ["--class", "linear"]),
    ("rbf", ["--class", "kernel", "--kernel", "rbf"]),
    ("poly", ["--class", "kernel", "--kernel", "poly"]),
    ("rbf_declined", ["--class", "kernel", "--kernel", "rbf", "--gamma", "1e6"]),
]
_SIZES, _VERIFY_M, _TRIALS = (20, 300), 15, 3


def _perturb(src: Path, dst: Path) -> None:
    """Write the targets at ``src`` to ``dst`` moved by at most 3e-10 off the
    diagonal: 1e-10 sign(j - i) ((i + j) mod 3), an antisymmetric part that
    the repair averages away, and -1e-10 on each zero target, which leaves
    it negative after the average, for the clamp."""
    from simcert.core import read_matrix_csv, write_matrix_csv

    targets = read_matrix_csv(src)
    i, j = np.indices(targets.shape)
    zero = (targets == 0.0) & (i != j)
    targets += 1e-10 * np.sign(j - i) * ((i + j) % 3)
    targets[zero] -= 1e-10
    write_matrix_csv(dst, targets)


def _run(cli_main, argv: list[str], allowed=(0,)) -> None:
    code = cli_main(argv)
    if code not in allowed:
        raise RuntimeError(f"simcert {' '.join(argv)} exited {code}")


def _payload(path: Path):
    """The JSON at ``path`` without the keys that echo paths."""
    payload = json.loads(path.read_bytes())
    payload.pop("config", None)
    if path.name == "manifest.json":
        payload.pop("out", None)
    return payload


def _file_digest(path: Path) -> str:
    """sha256 of the file's bytes; of its path-free re-dump for JSON."""
    data = path.read_bytes()
    if path.suffix == ".json":
        data = json.dumps(_payload(path), sort_keys=True, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def write_outputs(root: Path, sizes=_SIZES, verify_m: int = _VERIFY_M, trials: int = _TRIALS):
    """Run the script with the simcert package on sys.path, writing every
    CLI output under root/cli and each class's repr((estimate, standard
    error)) of the Monte-Carlo estimate to root/mc/<class>."""
    from simcert.cli import main as cli_main

    cli = root / "cli"
    for m in sizes:
        data = cli / f"m{m}" / "data"
        _run(cli_main, ["gen", "--m", str(m), "--n", "4", "--noise", "0.05", "--out", str(data)])
        problem = ["--features", str(data / "features.csv"),
                   "--distances", str(data / "distances.csv")]
        _perturb(data / "distances.csv", data / "distances_asym.csv")
        asym = ["--features", str(data / "features.csv"),
                "--distances", str(data / "distances_asym.csv")]
        for name, flags, files in [*((n, f, problem) for n, f in _CLASSES),
                                   ("linear_asym", ["--class", "linear"], asym)]:
            out = cli / f"m{m}" / name
            _run(cli_main, ["train", *files, *flags, "--max-iters", "50", "--out", str(out)])
            _run(cli_main, ["certify", "--model", str(out / "model.json"), *files,
                            "--out", str(out)])
    for name, flags in _CLASSES:
        out = cli / "verify" / name
        # exit 5 (coverage below 1 - delta) still writes both reports
        _run(cli_main, ["verify", "--m", str(verify_m), "--trials", str(trials), *flags,
                        "--out", str(out)], allowed=(0, 5))
    (root / "mc").mkdir()
    for name, flags in _CLASSES:
        estimate = _mc_estimate(cli / f"m{sizes[0]}" / "data", flags)
        (root / "mc" / name).write_text(repr(estimate))


def _outputs(root: Path) -> dict[str, Path]:
    """Each output of write_outputs by its line name: the CLI files in sorted
    order, then mc/<class> in class order."""
    cli = root / "cli"
    named = {p.relative_to(cli).as_posix(): p for p in sorted(cli.rglob("*")) if p.is_file()}
    named.update((f"mc/{name}", root / "mc" / name) for name, _ in _CLASSES)
    return named


def digest_lines(sizes=_SIZES, verify_m: int = _VERIFY_M, trials: int = _TRIALS) -> list[str]:
    """Run the script with the simcert package on sys.path and return the
    ``<file> <sha256>`` lines of every file it wrote, then the
    ``mc/<class> <sha256>`` lines of the Monte-Carlo estimates."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_outputs(root, sizes, verify_m, trials)
        return [f"{name} {_file_digest(path)}" for name, path in _outputs(root).items()]


def _mc_estimate(data: Path, flags: list[str]) -> tuple[float, float]:
    """(estimate, standard error) of the Monte-Carlo estimate on the instance
    in ``data`` for the class that ``flags`` make."""
    from simcert.bounds import empirical_rademacher_mc
    from simcert.cli import _class_from_flags, build_parser
    from simcert.core import SampleMatrix, read_distance_csv, read_matrix_csv
    from simcert.optimizer import TrainConfig

    hclass = _class_from_flags(build_parser().parse_args(["verify", *flags]))
    sample = SampleMatrix(read_matrix_csv(data / "features.csv"))
    distances = read_distance_csv(data / "distances.csv", 1e-9)
    return empirical_rademacher_mc(sample, distances, hclass, 2, TrainConfig(max_iters=40), 0)


def _leaves(path: Path) -> dict:
    """The leaves of an output by their place, each as (key, value): JSON
    leaves by key path (without the path echoes), keyed by that path with
    its list indices dropped; CSV fields by (row, column), as floats where
    they parse, keyed by column; and the two numbers of a Monte-Carlo pair."""
    if path.suffix == ".json":
        out = {}

        def walk(node, place, key):
            is_dict = isinstance(node, dict)
            for k, child in node.items() if is_dict else enumerate(node):
                sub = f"{key}.{k}" if is_dict else f"{key}[]"
                if isinstance(child, (dict, list)):
                    walk(child, (*place, k), sub)
                else:
                    out[(*place, k)] = (sub, child)

        walk(_payload(path), (), "")
        return out
    if path.suffix == ".csv":
        out = {}
        for i, row in enumerate(path.read_text().splitlines()):
            for j, field in enumerate(row.split(",")):
                try:
                    out[(i, j)] = (f"column {j}", float(field))
                except ValueError:
                    out[(i, j)] = (f"column {j}", field)
        return out
    estimate, std_error = ast.literal_eval(path.read_text())
    return {0: ("estimate", estimate), 1: ("std_error", std_error)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _drift(old: Path, new: Path) -> list[str]:
    """'<key> rel R abs A other N' for each key (see _leaves) of two
    versions of an output whose leaves differ, in key order: rel and abs
    when its shared numbers moved, other when N of its other leaves
    differ."""
    a, b = _leaves(old), _leaves(new)
    moved = {}
    for place in a.keys() | b.keys():
        key, x = a.get(place, b.get(place))
        y = b.get(place, (key, None))[1]
        rel, absolute, other = moved.get(key, (0.0, 0.0, 0))
        if place in a and place in b and _is_number(x) and _is_number(y):
            change = abs(y - x)
            absolute = max(absolute, change)
            rel = max(rel, change / abs(x) if x != 0 else (math.inf if change else 0.0))
        elif place not in a or place not in b or x != y:
            other += 1
        moved[key] = (rel, absolute, other)
    lines = []
    for key, (rel, absolute, other) in sorted(moved.items()):
        parts = [f"rel {rel:.3g} abs {absolute:.3g}"] if absolute else []
        parts += [f"other {other}"] if other else []
        if parts:
            lines.append(" ".join([key, *parts]))
    return lines


def drift_lines(old_src, new_src=_ROOT / "src", sizes=_SIZES, verify_m: int = _VERIFY_M,
                trials: int = _TRIALS) -> list[str]:
    """Run the script with the package in ``old_src`` and with the one in
    ``new_src``, each in its own process, and return ``<name> <key> rel R
    abs A`` (see _drift) for every key that moved in an output whose digest
    differs (``<name> no leaf moved`` when none did), ``<name> missing`` for
    an output that only one run wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        roots = []
        for side, src in (("old", old_src), ("new", new_src)):
            root = Path(tmp) / side
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--src", str(src),
                 "--write", str(root), "--sizes", *map(str, sizes),
                 "--verify-m", str(verify_m), "--trials", str(trials)],
                check=True,
            )
            roots.append(_outputs(root))
        old, new = roots
        lines = []
        for name in [*old, *(n for n in new if n not in old)]:
            if name not in old or name not in new:
                lines.append(f"{name} missing")
            elif _file_digest(old[name]) != _file_digest(new[name]):
                moved = _drift(old[name], new[name]) or ["no leaf moved"]
                lines += [f"{name} {line}" for line in moved]
        return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(_ROOT / "src"), help="directory holding simcert/")
    parser.add_argument("--drift", metavar="OLD", help="print how far OLD/simcert's outputs moved")
    parser.add_argument("--write", metavar="DIR", help="write the outputs under DIR, print nothing")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(_SIZES), help="gen sizes m")
    parser.add_argument("--verify-m", type=int, default=_VERIFY_M)
    parser.add_argument("--trials", type=int, default=_TRIALS)
    args = parser.parse_args(argv)
    script = (args.sizes, args.verify_m, args.trials)
    if args.drift is not None:
        lines = drift_lines(args.drift, args.src, *script)
    else:
        sys.path.insert(0, str(Path(args.src).resolve()))
        if args.write is not None:
            write_outputs(Path(args.write), *script)
            return 0
        lines = digest_lines(*script)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
