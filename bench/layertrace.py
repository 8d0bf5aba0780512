"""Layer tracing from outside the program.

The tracer replaces the module attributes that callers resolve at call time
(``schemes.jc_projected``, ``qlinalg.npt``, ...) with thin wrappers that
record one span per call: name, start, end, parent span and operation id.
Nothing on disk is patched, and :meth:`Tracer.uninstall` puts the original
functions back.  A name that no longer exists in the program is skipped, and
its metrics are omitted rather than reported as zero.

Spans stay in memory until the run ends; :func:`layer_metrics` turns them into
per-function call counts and self times (a span's duration minus the time
covered by its direct children), per-layer totals, the failure counts seen at
the layer boundaries and the oracle cache hit ratios.
"""

from __future__ import annotations

import gzip
import json
import math
import time

# (span name, module, attribute the callers resolve).  The span name carries
# the layer that defines the function: ``scaled_cat_kernels`` lives in
# ``states`` but ``schemes`` calls it through its own imported name.
TRACED = (
    ("cli.main", "cli", "main"),
    ("cli.run_sweep", "cli", "run_sweep"),
    ("cli.validate_grid", "cli", "validate_grid"),
    ("schemes.jc_projected", "schemes", "jc_projected"),
    ("schemes.kerr_micro_thermal_projected", "schemes", "kerr_micro_thermal_projected"),
    ("schemes.bs_scheme_projected", "schemes", "bs_scheme_projected"),
    ("schemes.bs_projected_kernel", "schemes", "bs_projected_kernel"),
    ("schemes.tt_scheme_projected", "schemes", "tt_scheme_projected"),
    ("schemes.tt_projected_kernel", "schemes", "tt_projected_kernel"),
    ("schemes.direct_kerr_projected", "schemes", "direct_kerr_projected"),
    ("states.scaled_cat_kernels", "schemes", "scaled_cat_kernels"),
    ("qlinalg.npt", "qlinalg", "npt"),
    ("qlinalg.hermitian_eigensystem", "qlinalg", "hermitian_eigensystem"),
    ("qlinalg.max_abs_deviation", "qlinalg", "max_abs_deviation"),
    ("oracle.quadrature_projected", "oracle", "quadrature_projected"),
    ("oracle.jc_fock_projected", "oracle", "jc_fock_projected"),
)

# Functions whose mean duration per call is reported, and in which unit.
PER_CALL = {
    "qlinalg.hermitian_eigensystem": "us",
    "schemes.jc_projected": "us",
    "schemes.kerr_micro_thermal_projected": "us",
    "schemes.bs_scheme_projected": "us",
    "schemes.bs_projected_kernel": "us",
    "schemes.tt_scheme_projected": "us",
    "schemes.tt_projected_kernel": "us",
    "schemes.direct_kerr_projected": "us",
    "oracle.quadrature_projected": "ms",
}

# Oracle lru caches whose hit ratio is reported: metric name -> attribute.
CACHES = {
    "oracle.thermal_nodes": "_thermal_nodes",
    "oracle.sandwich_block": "_sandwich_block",
    "oracle.bs_term_matrices": "_bs_term_matrices",
}

LAYERS = ("cli", "schemes", "states", "qlinalg", "oracle")

# Exceptions counted at a layer boundary: metric -> (span prefix, class name).
BOUNDARY_ERRORS = {
    "schemes.degenerate_errors": ("schemes.", "DegenerateStateError"),
    "oracle.unstable_errors": ("oracle.", "OracleUnstableError"),
}
NAN_NPT = "nan_npt"

# span record fields
_NAME, _START, _END, _PARENT, _OP, _OUTCOME = range(6)


class Tracer:
    """Records spans around the wrapped functions of the mixent modules."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.wrapped: list[str] = []
        self.passes = 0
        self.pass_seconds = 0.0
        self.cache_counts: dict[str, list[int]] = {}

    def install(self) -> None:
        self.wrapped = []
        for name, module_name, attr in TRACED:
            module = self.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
            self.wrapped.append(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            op = spans[parent][_OP] if parent >= 0 else index
            record = [name, 0, 0, parent, op, None]
            spans.append(record)
            stack.append(index)
            record[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[_END] = clock()
                record[_OUTCOME] = type(exc).__name__
                stack.pop()
                raise
            record[_END] = clock()
            stack.pop()
            npt_value = getattr(result, "npt_normalized", None)
            if npt_value is not None and math.isnan(npt_value):
                record[_OUTCOME] = NAN_NPT
            return result

        return traced

    def end_pass(self, seconds: float) -> None:
        """Account one traced pass and read the oracle cache statistics."""
        self.passes += 1
        self.pass_seconds += seconds
        oracle = self.modules["oracle"]
        for name, attr in CACHES.items():
            info = getattr(getattr(oracle, attr, None), "cache_info", None)
            if info is None:
                continue
            stats = info()
            counts = self.cache_counts.setdefault(name, [0, 0])
            counts[0] += stats.hits
            counts[1] += stats.misses

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip), times in ns from the first span."""
        base = self.spans[0][_START] if self.spans else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, start, end, parent, op, outcome) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_ns": start - base,
                            "end_ns": end - base,
                            "parent": parent,
                            "op": op,
                            "outcome": outcome,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> list[int]:
    """Self time of every span in ns: duration minus its direct children's."""
    covered = [0] * len(spans)
    for record in spans:
        if record[_PARENT] >= 0:
            covered[record[_PARENT]] += record[_END] - record[_START]
    return [r[_END] - r[_START] - c for r, c in zip(spans, covered)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-pass layer metrics from the tracer's spans, as name -> (value, unit)."""
    passes = max(tracer.passes, 1)
    selfs = self_times(tracer.spans)
    calls = {name: 0 for name in tracer.wrapped}
    self_ns = {name: 0 for name in tracer.wrapped}
    total_ns = {name: 0 for name in tracer.wrapped}
    errors = {metric: 0 for metric in BOUNDARY_ERRORS}
    nan_npt = 0
    root_ns = 0
    for record, own in zip(tracer.spans, selfs):
        name = record[_NAME]
        duration = record[_END] - record[_START]
        calls[name] += 1
        self_ns[name] += own
        total_ns[name] += duration
        if record[_PARENT] < 0:
            root_ns += duration
        outcome = record[_OUTCOME]
        if outcome is None:
            continue
        if outcome == NAN_NPT and name.startswith("schemes."):
            nan_npt += 1
        for metric, (prefix, exc_name) in BOUNDARY_ERRORS.items():
            if outcome == exc_name and name.startswith(prefix):
                errors[metric] += 1

    out = {}
    for name in tracer.wrapped:
        out[f"{name}.calls"] = (calls[name] / passes, "count")
        out[f"{name}.self_s"] = (self_ns[name] / 1e9 / passes, "s")
        unit = PER_CALL.get(name)
        if unit:
            scale = 1e3 if unit == "us" else 1e6
            mean = total_ns[name] / calls[name] / scale if calls[name] else 0.0
            out[f"{name}.{unit}_per_call"] = (mean, unit)

    wall = tracer.pass_seconds
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = (layer_ns / 1e9 / passes, "s")
        out[f"layer.{layer}.share"] = (layer_ns / 1e9 / wall if wall else 0.0, "fraction")
    unwrapped = max(wall - root_ns / 1e9, 0.0)
    out["layer.unwrapped.self_s"] = (unwrapped / passes, "s")
    out["layer.unwrapped.share"] = (unwrapped / wall if wall else 0.0, "fraction")

    out["schemes.nan_npt"] = (nan_npt / passes, "count")
    for metric, count in errors.items():
        out[metric] = (count / passes, "count")
    for name, (hits, misses) in sorted(tracer.cache_counts.items()):
        out[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    return out
