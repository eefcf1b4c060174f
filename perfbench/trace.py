"""Span tracing of qtrig's public functions, installed from outside the package.

install() wraps every public function of the eight modules and rebinds each
wrapped name wherever a qtrig module imported it by name (for example
curve.basis_all_direct, rational.basis_all_direct and cli.sample_curve), so
calls between modules are traced too.  Each span records its name, start,
end and parent in flat arrays kept in memory; layer_metrics() turns them
into per-layer counts and self times, where a span's self time is its
duration minus the time covered by its child spans.

Four per-scalar leaves are left unwrapped: trig_kernel and validate_q (called
once per kernel entry) and the export formatters sig_str and round_sig
(called once per printed number).  A wrapper would cost more than they do;
their time lands in the caller's self time, and kernel work is counted by
kernel_evals instead.
"""

import importlib
import inspect
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("qcalc", "kernel", "basis", "curve", "rational", "shape", "export", "cli")
UNWRAPPED = {"trig_kernel", "validate_q", "sig_str", "round_sig"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_kernel_tables(counters, args, kwargs, result):
    counters["kernel.kernel_evals"] += 3 * _arg(args, kwargs, 3, "n")


def _count_certify(counters, args, kwargs, result):
    counters["kernel.kernel_evals"] += _arg(args, kwargs, 2, "n") + 1


def _count_tp(counters, args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "matrix")
    rows, cols = np.shape(getattr(matrix, "entries", matrix))
    counters["shape.minors_checked"] += result.minors_checked
    counters["shape.minors_total"] += sum(
        math.comb(rows, r) * math.comb(cols, r) for r in range(1, min(rows, cols) + 1)
    )


def _count_bytes(counters, args, kwargs, result):
    counters["export.bytes_out"] += len(result.encode("utf-8"))


COUNTERS = {
    "kernel.kernel_tables": _count_kernel_tables,
    "kernel.certify_interval": _count_certify,
    "shape.total_positivity_check": _count_tp,
    "export.render_csv": _count_bytes,
    "export.render_json_records": _count_bytes,
    "export.render_svg": _count_bytes,
}


def public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and name not in UNWRAPPED:
            yield name, obj


class Tracer:
    def __init__(self):
        self.labels = []
        self.start = array("d")
        self.end = array("d")
        self.label = array("i")
        self.parent = array("i")
        self.counters = Counter()
        self._stack = [-1]
        self._restore = []

    def _wrap(self, label, fn):
        lid = len(self.labels)
        self.labels.append(label)
        start, end, labels, parent, stack = self.start, self.end, self.label, self.parent, self._stack
        count, counters = COUNTERS.get(label), self.counters

        def traced(*args, **kwargs):
            sid = len(labels)
            labels.append(lid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [importlib.import_module(f"qtrig.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qtrig" and not mod_name.startswith("qtrig."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def arrays(self):
        return (np.frombuffer(self.start, dtype=float), np.frombuffer(self.end, dtype=float),
                np.frombuffer(self.label, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32))

    def save(self, path):
        start, end, label, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.labels), start=start, end=end, label=label, parent=parent)

    def layer_metrics(self, passes):
        """Per-pass counts and self times by span name and by layer."""
        start, end, label, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        n_labels = len(self.labels)
        calls = np.bincount(label, minlength=n_labels)
        selfs = np.bincount(label, weights=self_time, minlength=n_labels)
        by_name = {name: (int(calls[i]), float(selfs[i])) for i, name in enumerate(self.labels)}
        by_layer = Counter()
        for name, (_, s) in by_name.items():
            by_layer[name.split(".")[0]] += s
        idx = {name: i for i, name in enumerate(self.labels)}
        basis_direct, certificate = idx["basis.basis_all_direct"], idx["rational.denominator_certificate"]
        is_den_eval = (label == basis_direct) & has_parent
        den_evals = int(np.sum(label[parent[is_den_eval]] == certificate)) if is_den_eval.any() else 0
        return dict(
            calls={k: v[0] / passes for k, v in by_name.items()},
            self_s={k: v[1] / passes for k, v in by_name.items()},
            layer_self_s={k: v / passes for k, v in by_layer.items()},
            root_s=float(dur[~has_parent].sum()) / passes,
            spans=len(dur) / passes,
            counters={k: v / passes for k, v in self.counters.items()},
            denominator_evals=den_evals / passes,
        )
