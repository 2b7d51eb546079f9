"""In-memory span tracing of fluxt1's public layer functions.

The benchmark wraps functions from outside the package: each wrapped name is
rebound in every loaded ``fluxt1`` module that holds the same object (the
modules import one another's functions by name, so patching only the defining
module would miss most calls), and the two ``QceffInverter`` methods are
replaced on the class. Spans are kept in a list while the pass runs and are
written out once, after it.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested because the workloads run in one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) -> span name. The span name's first component is the
# layer; every function of a layer reported as one span shares the name.
FUNCTIONS = {
    ("fluxt1.hamiltonian", "diagonalize"): "hamiltonian.diagonalize",
    ("fluxt1.loss", "build_mechanism_table"): "loss.build_mechanism_table",
    ("fluxt1.resonator", "dressed_response"): "resonator.dressed_response",
    ("fluxt1.dynamics", "build_rate_matrix"): "dynamics.build_rate_matrix",
    ("fluxt1.dynamics", "evolve"): "dynamics.evolve",
    ("fluxt1.dynamics", "default_time_grid"): "dynamics.default_time_grid",
    ("fluxt1.dynamics", "fit_exponential"): "dynamics.fit_exponential",
    ("fluxt1.dynamics", "predicted_t1"): "dynamics.predicted_t1",
    ("fluxt1.pipeline", "exclusion_filter"): "pipeline.exclusion_filter",
    ("fluxt1.pipeline", "fit_epsilon_global"): "pipeline.fit_epsilon_global",
    ("fluxt1.stats", "welch_t_test"): "stats.welch_t_test",
    ("fluxt1.io", "parse_device_file"): "io",
    ("fluxt1.io", "parse_t1_csv"): "io",
    ("fluxt1.io", "read_distribution"): "io",
    ("fluxt1.io", "write_result"): "io",
    ("fluxt1.io", "atomic_write_text"): "io",
    ("fluxt1.cli", "cli"): "cli",
}
METHODS = {
    "invert": "pipeline.QceffInverter.invert",
    "predict_t1": "pipeline.QceffInverter.predict_t1",
}
SPAN_NAMES = tuple(dict.fromkeys([*FUNCTIONS.values(), *METHODS.values()]))


class Tracer:
    """Collects spans from wrapped fluxt1 functions between install and remove."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.basis_dims: list[int] = []
        self.n_kept = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if name == "hamiltonian.diagonalize":
                self.basis_dims.append(result.basis_dim)
            elif name == "pipeline.exclusion_filter":
                self.n_kept += len(result[0])
            return result

        return wrapper

    def install(self) -> None:
        import fluxt1.cli  # noqa: F401  (loads every layer module)
        from fluxt1.pipeline import QceffInverter

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "fluxt1" or key.startswith("fluxt1.")]
        for (module_name, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for attr, name in METHODS.items():
            original = QceffInverter.__dict__[attr]
            self._undo.append((QceffInverter, attr, original))
            setattr(QceffInverter, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per span name, plus the derived counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        dims = self.basis_dims
        out["hamiltonian.basis_dim_mean"] = sum(dims) / len(dims) if dims else 0.0
        inverts = calls["pipeline.QceffInverter.invert"]
        out["pipeline.invert.evals_per_call"] = (
            calls["pipeline.QceffInverter.predict_t1"] / inverts if inverts else 0.0)
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write the metadata and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
