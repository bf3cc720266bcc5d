"""Spans around simcert's public functions, recorded from outside the package.

Each traced ``<module>.<function>`` is replaced, in every simcert namespace
that binds it, by a wrapper that records a span: function, parent span,
op id, start and end.  Rebinding every namespace is what makes the calls
``train`` makes internally visible (``optimizer`` calls ``model_norm``
through its own imported name, not through ``hypotheses``).  Spans stay in
memory and are written out once at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

# Every simcert namespace that binds each traced function.  "simcert" is
# the package's re-export; "cli._HANDLERS" is the subcommand dispatch dict,
# which holds its own references to the cmd_* functions.
BINDINGS: dict[str, tuple[str, ...]] = {
    "kernels.gram": ("kernels", "hypotheses", "optimizer", "bounds", "simcert"),
    "kernels.kernel_columns": ("kernels", "hypotheses", "optimizer"),
    "kernels.psd_check": ("kernels", "optimizer", "simcert"),
    "core.pairwise_distances": ("core", "hypotheses", "harness", "simcert"),
    "core.empirical_risk": ("core", "optimizer", "bounds", "harness", "simcert"),
    "core.read_matrix_csv": ("core", "cli", "simcert"),
    "core.write_matrix_csv": ("core", "cli", "simcert"),
    "core.validate_distance_matrix": ("core", "cli", "simcert"),
    "hypotheses.embed": ("hypotheses",),
    "hypotheses.embedding_distance_matrix": (
        "hypotheses", "optimizer", "bounds", "harness", "simcert",
    ),
    "hypotheses.model_norm": ("hypotheses", "optimizer", "bounds", "simcert"),
    "hypotheses.project_norm_ball": ("hypotheses", "optimizer", "bounds", "simcert"),
    "hypotheses.save_model": ("hypotheses", "cli", "simcert"),
    "hypotheses.load_model": ("hypotheses", "cli", "simcert"),
    "optimizer.train": ("optimizer", "harness", "cli", "simcert"),
    "optimizer.initialize_model": ("optimizer", "bounds"),
    "optimizer.risk_gradient": ("optimizer", "simcert"),
    "optimizer.weighted_stress_gradient": ("optimizer", "bounds"),
    "optimizer.weighted_stress_value": ("optimizer", "bounds"),
    "optimizer.norm_subgradient": ("optimizer",),
    "bounds.certify": ("bounds", "harness", "cli", "simcert"),
    "bounds.empirical_rademacher_mc": ("bounds", "simcert"),
    "harness.generate_synthetic": ("harness", "cli", "simcert"),
    "harness.holdout_risk": ("harness", "simcert"),
    "cli.cmd_gen": ("cli", "cli._HANDLERS"),
    "cli.cmd_train": ("cli", "cli._HANDLERS"),
    "cli.cmd_certify": ("cli", "cli._HANDLERS"),
}

PACKAGE = "simcert"

# One descent or ascent step evaluates one weighted stress gradient, in
# train and in the Monte-Carlo estimator alike.
STEP_FUNCTION = "optimizer.weighted_stress_gradient"


def _projection_active(args, result) -> float:
    return float(result is not args[0])


def _train_steps(args, result) -> float:
    return float(result[1].iterations_used)


def _distance_bytes(args, result) -> float:
    m, k = np.shape(args[0])
    return 2.0 * 8.0 * m * m * k


# Per-call quantities measured at the boundary, summed per function.
OUTCOMES = {
    "hypotheses.project_norm_ball": _projection_active,
    "optimizer.train": _train_steps,
    "core.pairwise_distances": _distance_bytes,
}


def _namespace(name: str):
    """The module (or module-level dict) a BINDINGS entry names, or None."""
    module_name, _, attr = name.partition(".")
    full = PACKAGE if module_name == PACKAGE else f"{PACKAGE}.{module_name}"
    try:
        module = importlib.import_module(full)
    except ImportError:
        return None
    return getattr(module, attr, None) if attr else module


class Tracer:
    """Installs span-recording wrappers; records only while ``op`` is set."""

    def __init__(self):
        self.names = list(BINDINGS)
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []
        for name in self.names:
            home, func = name.split(".")
            original = getattr(_namespace(home), func, None)
            if callable(original):
                self.originals[name] = original
            else:
                self.absent.append(name)
        self.spans: list[list] = []  # [function index, parent span, op id, start, end]
        self.outcomes = np.zeros(len(self.names))
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, outcome):
        spans, stack, outcomes, clock = self.spans, self._stack, self.outcomes, time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [index, stack[-1] if stack else -1, self.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if outcome is not None:
                outcomes[index] += outcome(args, result)
            return result

        return traced

    def install(self) -> None:
        for index, name in enumerate(self.names):
            original = self.originals.get(name)
            if original is None:
                continue
            wrapper = self._wrap(index, original, OUTCOMES.get(name))
            func = name.split(".")[1]
            for where in BINDINGS[name]:
                target = _namespace(where)
                if isinstance(target, dict):
                    keys = [k for k, v in target.items() if v is original]
                    for key in keys:
                        target[key] = wrapper
                        self._patches.append((target, key, original))
                elif target is not None and getattr(target, func, None) is original:
                    setattr(target, func, wrapper)
                    self._patches.append((target, func, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Names in simcert namespaces that still bind an unwrapped original.

        Non-empty means BINDINGS is stale and some calls go untimed.
        """
        originals = {id(fn): name for name, fn in self.originals.items()}
        found = []
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in vars(module).items():
                values = value.values() if isinstance(value, dict) else (value,)
                if any(id(v) in originals for v in values):
                    found.append(f"{mod_name}.{attr}")
        return found

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-op calls and self time for every function, plus derived ratios."""
        n_fn = len(self.names)
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        fn_idx = rows[:, 0].astype(int)
        parents = rows[:, 1].astype(int)
        duration = rows[:, 4] - rows[:, 3]
        covered = np.zeros(len(rows))
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        calls = np.bincount(fn_idx, minlength=n_fn).astype(float)
        self_s = np.bincount(fn_idx, weights=duration - covered, minlength=n_fn)

        per_op = max(n_ops, 1)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / per_op
            out[f"{name}.self_s"] = self_s[i] / per_op

        col = {name: i for i, name in enumerate(self.names)}
        train, gram = col["optimizer.train"], col["kernels.gram"]
        in_train = np.zeros(len(rows), dtype=bool)
        for i in range(len(rows)):
            in_train[i] = fn_idx[i] == train or (parents[i] >= 0 and in_train[parents[i]])
        gram_in_train = np.count_nonzero(in_train & (fn_idx == gram))
        steps = calls[col[STEP_FUNCTION]]
        projections = calls[col["hypotheses.project_norm_ball"]]
        out["kernels.gram.calls_per_fit"] = gram_in_train / calls[train] if calls[train] else 0.0
        out["core.pairwise_distances.calls_per_step"] = (
            calls[col["core.pairwise_distances"]] / steps if steps else 0.0
        )
        out["hypotheses.project_norm_ball.active_ratio"] = (
            self.outcomes[col["hypotheses.project_norm_ball"]] / projections if projections else 0.0
        )
        out["optimizer.steps_per_op"] = self.outcomes[train] / per_op
        out["core.pairwise_distances.bytes_computed"] = (
            self.outcomes[col["core.pairwise_distances"]] / per_op
        )
        return out

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one ``[id, parent, op, function, start, end]`` per span."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            head = dict(header, functions=self.names, absent=self.absent)
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for i, (fn, parent, op, start, end) in enumerate(self.spans):
                fh.write(f'[{i},{parent},{op},"{self.names[fn]}",{start!r},{end!r}]\n')
