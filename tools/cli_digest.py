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

Usage:

    python tools/cli_digest.py                    # this tree's src/
    python tools/cli_digest.py --src OTHER/src    # another tree's package
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def _file_digest(path: Path) -> str:
    """sha256 of the file's bytes; of its path-free re-dump for JSON."""
    data = path.read_bytes()
    if path.suffix == ".json":
        payload = json.loads(data)
        payload.pop("config", None)
        if path.name == "manifest.json":
            payload.pop("out", None)
        data = json.dumps(payload, sort_keys=True, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def digest_lines(sizes=(20, 300), verify_m: int = 15, trials: int = 3) -> list[str]:
    """Run the script with the simcert package on sys.path and return the
    ``<file> <sha256>`` lines of every file it wrote, then the
    ``mc/<class> <sha256>`` lines of the Monte-Carlo estimates."""
    from simcert.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for m in sizes:
            data = root / f"m{m}" / "data"
            _run(cli_main, ["gen", "--m", str(m), "--n", "4", "--noise", "0.05", "--out", str(data)])
            problem = ["--features", str(data / "features.csv"),
                       "--distances", str(data / "distances.csv")]
            _perturb(data / "distances.csv", data / "distances_asym.csv")
            asym = ["--features", str(data / "features.csv"),
                    "--distances", str(data / "distances_asym.csv")]
            for name, flags, files in [*((n, f, problem) for n, f in _CLASSES),
                                       ("linear_asym", ["--class", "linear"], asym)]:
                out = root / f"m{m}" / name
                _run(cli_main, ["train", *files, *flags, "--max-iters", "50", "--out", str(out)])
                _run(cli_main, ["certify", "--model", str(out / "model.json"), *files,
                                "--out", str(out)])
        for name, flags in _CLASSES:
            out = root / "verify" / name
            # exit 5 (coverage below 1 - delta) still writes both reports
            _run(cli_main, ["verify", "--m", str(verify_m), "--trials", str(trials), *flags,
                            "--out", str(out)], allowed=(0, 5))
        files = sorted(p for p in root.rglob("*") if p.is_file())
        lines = [f"{p.relative_to(root).as_posix()} {_file_digest(p)}" for p in files]
        data = root / f"m{sizes[0]}" / "data"
        for name, flags in _CLASSES:
            lines.append(f"mc/{name} {_mc_digest(data, flags)}")
        return lines


def _mc_digest(data: Path, flags: list[str]) -> str:
    """sha256 of repr((estimate, standard error)) of the Monte-Carlo estimate
    on the instance in ``data`` for the class that ``flags`` make."""
    from simcert.bounds import empirical_rademacher_mc
    from simcert.cli import _class_from_flags, build_parser
    from simcert.core import SampleMatrix, read_distance_csv, read_matrix_csv
    from simcert.optimizer import TrainConfig

    hclass = _class_from_flags(build_parser().parse_args(["verify", *flags]))
    sample = SampleMatrix(read_matrix_csv(data / "features.csv"))
    distances = read_distance_csv(data / "distances.csv", 1e-9)
    result = empirical_rademacher_mc(sample, distances, hclass, 2, TrainConfig(max_iters=40), 0)
    return hashlib.sha256(repr(result).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(_ROOT / "src"), help="directory holding simcert/")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    for line in digest_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
