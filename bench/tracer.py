"""Span tracer for the benchmark's traced run.

The tracer replaces the module-level names of the package's public layer
functions with wrappers, from outside the package.  The package modules
import each other with ``from .x import f``, so a function is patched under
every ``kantorovich.*`` name that is bound to it, for example both
``kantorovich.sampling.h_form_batch`` and
``kantorovich.classify.h_form_batch``.

Each wrapped call made inside an op records one span: name, start, end,
parent span, op id, plus a work count and a value read from the call's
arguments and result.  Calls made outside an op (warm-up, output checks)
pass straight through.  Spans live in flat arrays in memory and are
written out at the end of the run.

A trace point whose module or function no longer exists is listed in
``absent`` and skipped; it never stops the run.
"""

from __future__ import annotations

import gzip
import importlib
import math
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np

# (module, function) pairs wrapped in the traced run.  ``delta_from_spd`` is
# traced so that refinement time can be separated from the rest of falsify.
TRACE_POINTS = (
    ("cli", "run"),
    ("cli", "read_matrix_file"),
    ("linalg", "validate_spd"),
    ("linalg", "eig_sym"),
    ("linalg", "min_eig_batch"),
    ("forms", "delta_from_spd"),
    ("forms", "h_form_batch"),
    ("forms", "m_form"),
    ("forms", "p_form"),
    ("forms", "q_form"),
    ("forms", "det3_batch"),
    ("sampling", "all_samples"),
    ("sampling", "scan_h"),
    ("classify", "classify"),
    ("classify", "falsify"),
    ("boundary", "probe_boundary"),
    ("lmi", "box_inequality_grid_check"),
    ("lmi", "robust_psd_grid"),
    ("lmi", "detm_alpha_convexity_check"),
)

# Trace points whose peak allocation is measured with tracemalloc.
PEAK_POINTS = {
    "sampling.scan_h", "lmi.box_inequality_grid_check",
    "lmi.robust_psd_grid", "lmi.detm_alpha_convexity_check",
}

CERTIFICATES = ("exact-2d", "sufficient-any-dim", "sufficient-3d",
                "necessary-violated", "witness-found", "sampling-exhausted")

LMI_CHECKS = ("box_inequality_grid_check", "robust_psd_grid.M",
              "robust_psd_grid.P", "robust_psd_grid.Q",
              "detm_alpha_convexity_check")

NAN = float("nan")

# Relative drop of lambda_min below the scan's worst value that counts as
# an improvement by refinement; smaller drops are rounding.
IMPROVED_REL = 1e-9


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos]


def _matrices(mats):
    shape = np.shape(mats)
    return int(np.prod(shape[:-2])) if len(shape) >= 2 else 0


def _report_cells(result):
    reports = getattr(result, "reports", None)
    if reports is None:
        return result.cells
    return sum(r.cells for r in reports)


# How each trace point reads its work count, value and flag.  Each returns
# (count, value, flag); a reader that fails records NaN and the run goes on.
def _read_min_eig_batch(args, kwargs, result):
    return _matrices(_arg(args, kwargs, 0, "mats")), NAN, False


def _read_h_form_batch(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "points")), NAN, False


def _read_scan_h(args, kwargs, result):
    return (len(_arg(args, kwargs, 1, "points")), result.worst_value,
            result.violation)


def _read_form(args, kwargs, result):
    return _matrices(result), NAN, False


def _read_det3(args, kwargs, result):
    return int(np.size(result)), NAN, False


def _read_falsify(args, kwargs, result):
    if result is None:
        return 0, NAN, False
    return 1, result.lambda_min, True


def _read_grid(args, kwargs, result):
    return _report_cells(result), NAN, not result.passed


READERS = {
    "linalg.min_eig_batch": _read_min_eig_batch,
    "forms.h_form_batch": _read_h_form_batch,
    "sampling.scan_h": _read_scan_h,
    "forms.m_form": _read_form,
    "forms.p_form": _read_form,
    "forms.q_form": _read_form,
    "forms.det3_batch": _read_det3,
    "classify.falsify": _read_falsify,
    "lmi.box_inequality_grid_check": _read_grid,
    "lmi.robust_psd_grid": _read_grid,
    "lmi.detm_alpha_convexity_check": _read_grid,
}


def _robust_name(args, kwargs):
    return "lmi.robust_psd_grid." + str(_arg(args, kwargs, 0, "form")).upper()


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.value = array("d")
        self.flag = array("b")
        self.error = array("b")
        self.peak = array("d")
        self.rungs: Counter = Counter()
        self.absent: list[str] = []
        self.reader_errors: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- op context ------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.clear()

    def end_op(self) -> None:
        self._op = None
        self._stack.clear()

    # -- span recording --------------------------------------------------
    def _name_code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _wrap(self, point: str, fn):
        tracer = self
        reader = READERS.get(point)
        namer = _robust_name if point == "lmi.robust_psd_grid" else None
        peak = point in PEAK_POINTS

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            name = point
            if namer is not None:
                try:
                    name = namer(args, kwargs)
                except Exception:
                    tracer.reader_errors[point] += 1
            idx = len(tracer.code)
            tracer.code.append(tracer._name_code(name))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer._op)
            tracer.count.append(NAN)
            tracer.value.append(NAN)
            tracer.flag.append(0)
            tracer.error.append(0)
            tracer.peak.append(NAN)
            tracer.end.append(NAN)
            own_malloc = peak and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = time.perf_counter()
                tracer.error[idx] = 1
                raise
            else:
                tracer.end[idx] = time.perf_counter()
            finally:
                tracer._stack.pop()
                if own_malloc:
                    tracer.peak[idx] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if reader is not None:
                try:
                    c, v, f = reader(args, kwargs, result)
                    tracer.count[idx] = c
                    tracer.value[idx] = v
                    tracer.flag[idx] = 1 if f else 0
                except Exception:
                    tracer.reader_errors[point] += 1
            if point == "classify.classify":
                cert = getattr(getattr(result, "certificate", None),
                               "value", None)
                tracer.rungs[str(cert)] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", point)
        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        """Wrap every trace point under every package name bound to it."""
        for mod_name, fn_name in TRACE_POINTS:
            point = f"{mod_name}.{fn_name}"
            try:
                module = importlib.import_module(f"kantorovich.{mod_name}")
            except ImportError:
                self.absent.append(point)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.absent.append(point)
                continue
            wrapper = self._wrap(point, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "kantorovich"
                                       or name.startswith("kantorovich.")):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- persistence -----------------------------------------------------
    def dump(self) -> dict:
        return {
            "names": self.names,
            "code": list(self.code), "parent": list(self.parent),
            "op": list(self.op), "start": list(self.start),
            "end": list(self.end), "count": list(self.count),
            "value": list(self.value), "flag": list(self.flag),
            "error": list(self.error), "peak": list(self.peak),
            "rungs": dict(self.rungs), "absent": self.absent,
            "reader_errors": dict(self.reader_errors),
        }

    def merge(self, dump: dict) -> None:
        """Append the spans of another tracer (e.g. from a CLI subprocess)."""
        offset = len(self.code)
        remap = [self._name_code(n) for n in dump["names"]]
        self.code.extend(remap[c] for c in dump["code"])
        self.parent.extend(p + offset if p >= 0 else -1
                           for p in dump["parent"])
        for field in ("op", "start", "end", "count", "value", "flag",
                      "error", "peak"):
            getattr(self, field).extend(
                NAN if v is None else v for v in dump[field])
        self.rungs.update(dump["rungs"])
        self.reader_errors.update(dump["reader_errors"])
        for point in dump["absent"]:
            if point not in self.absent:
                self.absent.append(point)

    def write_spans(self, path) -> None:
        """One CSV line per span: id,parent,op,name,start_s,end_s,count."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s,count\n")
            for i in range(len(self.code)):
                fh.write(f"{i},{self.parent[i]},{self.op[i]},"
                         f"{self.names[self.code[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.count[i]:g}\n")

    # -- per-layer metrics -----------------------------------------------
    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, named ``<module>.<function>.<stat>``."""
        n = len(self.code)
        code = np.frombuffer(self.code, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = (np.frombuffer(self.end, count=n)
               - np.frombuffer(self.start, count=n))
        count = np.frombuffer(self.count, count=n)
        value = np.frombuffer(self.value, count=n)
        flag = np.frombuffer(self.flag, dtype=np.int8, count=n)
        error = np.frombuffer(self.error, dtype=np.int8, count=n)
        peak = np.frombuffer(self.peak, count=n)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=n)
        self_dur = dur - child_sum

        def sel(name):
            c = self._codes.get(name)
            return code == c if c is not None else np.zeros(n, dtype=bool)

        def ms(mask, d=dur):
            return float(d[mask].sum()) * 1e3

        def peak_mb(mask):
            p = peak[mask]
            p = p[~np.isnan(p)]
            return float(p.max()) / 2**20 if p.size else 0.0

        out: dict[str, tuple[float, str]] = {}

        def put(name, v, unit):
            out[name] = (float(v), unit)

        m = sel("cli.read_matrix_file")
        put("cli.read_matrix_file.ms", ms(m), "ms")
        put("cli.run.self_ms", ms(sel("cli.run"), self_dur), "ms")

        m = sel("linalg.validate_spd")
        put("linalg.validate_spd.calls", m.sum(), "count")
        put("linalg.validate_spd.ms", ms(m), "ms")
        put("linalg.validate_spd.rejected", (m & (error == 1)).sum(), "count")
        m = sel("linalg.eig_sym")
        put("linalg.eig_sym.calls", m.sum(), "count")
        put("linalg.eig_sym.ms", ms(m), "ms")
        m = sel("linalg.min_eig_batch")
        put("linalg.min_eig_batch.calls", m.sum(), "count")
        put("linalg.min_eig_batch.matrices", np.nansum(count[m]), "count")
        put("linalg.min_eig_batch.ms", ms(m), "ms")

        m = sel("forms.h_form_batch")
        put("forms.h_form_batch.calls", m.sum(), "count")
        put("forms.h_form_batch.points", np.nansum(count[m]), "count")
        put("forms.h_form_batch.ms", ms(m), "ms")
        for fn in ("m_form", "p_form", "q_form", "det3_batch"):
            m = sel(f"forms.{fn}")
            put(f"forms.{fn}.cells", np.nansum(count[m]), "count")
            put(f"forms.{fn}.ms", ms(m), "ms")

        m = sel("sampling.all_samples")
        put("sampling.all_samples.calls", m.sum(), "count")
        put("sampling.all_samples.ms", ms(m), "ms")
        scan = sel("sampling.scan_h")
        points = np.nansum(count[scan])
        put("sampling.scan_h.calls", scan.sum(), "count")
        put("sampling.scan_h.points", points, "count")
        put("sampling.scan_h.ms", ms(scan), "ms")
        put("sampling.scan_h.self_ms", ms(scan, self_dur), "ms")
        put("sampling.scan_h.peak_alloc_mb", peak_mb(scan), "MB")
        put("sampling.scan_h.points_per_verdict", points / max(ops, 1),
            "points/op")

        for cert in CERTIFICATES:
            put(f"classify.rung.{cert}", self.rungs.get(cert, 0), "count")
        put("classify.classify.self_ms", ms(sel("classify.classify"),
                                            self_dur), "ms")

        fals = sel("classify.falsify")
        fals_idx = np.flatnonzero(fals)
        witness = fals & (flag == 1)
        put("classify.falsify.calls", fals.sum(), "count")
        put("classify.falsify.ms", ms(fals), "ms")
        put("classify.falsify.witness_ratio",
            witness.sum() / max(int(fals.sum()), 1), "ratio")
        # Refinement: falsify minus its delta/sample/scan children.
        search = (sel("forms.delta_from_spd") | sel("sampling.all_samples")
                  | scan)
        under_falsify = has_parent & np.isin(parent, fals_idx)
        put("classify.refine.ms",
            ms(fals) - ms(search & under_falsify), "ms")
        put("classify.refine.evals",
            (sel("forms.h_form_batch") & under_falsify).sum(), "count")
        # A witness improved on the scan when refinement lowered lambda_min
        # below the worst value of the scan_h call made just before it in
        # falsify by more than IMPROVED_REL of that value: refinement starts
        # from the scan's point, re-evaluated, so a last-digit difference
        # is rounding.  The gain is that drop relative to |worst value|.
        scan_children = np.flatnonzero(scan & under_falsify)
        last_scan = {}
        for s in scan_children:
            last_scan[int(parent[s])] = float(value[s])
        gains = [(last_scan[int(w)] - value[w]) / abs(last_scan[int(w)])
                 for w in np.flatnonzero(witness)
                 if math.isfinite(last_scan.get(int(w), math.nan))]
        put("classify.refine.improved_ratio",
            sum(g > IMPROVED_REL for g in gains) / max(len(gains), 1),
            "ratio")
        put("classify.refine.gain_median",
            float(np.median(gains)) if gains else 0.0, "ratio")

        probe = sel("boundary.probe_boundary")
        steps = fals & has_parent & np.isin(parent, np.flatnonzero(probe))
        put("boundary.probe_boundary.calls", probe.sum(), "count")
        put("boundary.probe_boundary.ms", ms(probe), "ms")
        put("boundary.steps", steps.sum(), "count")
        put("boundary.step_ms_p50",
            float(np.median(dur[steps])) * 1e3 if steps.any() else 0.0, "ms")

        for check in LMI_CHECKS:
            m = sel(f"lmi.{check}")
            put(f"lmi.{check}.ms", ms(m), "ms")
            put(f"lmi.{check}.cells", np.nansum(count[m]), "count")
            put(f"lmi.{check}.peak_alloc_mb", peak_mb(m), "MB")
        return out
