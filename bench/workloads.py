"""The benchmark's four workloads: seeded inputs, timed ops, output checks.

Run as a child process by ``run.py``; one fresh child per workload run::

    python3 bench/workloads.py --workload NAME --seed N --seconds S \
        --t0 PARENT_PERF_COUNTER [--trace] [--setup-only]

Each workload is a closed loop with one client.  It runs a fixed number of
whole rounds of ops, ``ROUNDS`` per 10 s of ``--seconds``, never a count
that depends on how fast the ops run; inputs come only from the seed.
Outputs are kept and checked after the loop, so checks never count as
timed work.  The child prints one JSON
object on its last stdout line.

``--setup-only`` stops at the first timed op, so the parent can measure
set-up several times per run.  ``--serve-array-probe`` (alone) runs the
helper process of ``ArrayProber``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("analyze-gap", "analyze-cli", "boundary-sweep", "lemmas-grid")

# Thresholds, restated here so the checks do not trust the package's own.
KAPPA_NECESSARY = 3.0 + 2.0 * math.sqrt(2.0)
KAPPA_SUFFICIENT_ANY = math.sqrt(5.0 + 2.0 * math.sqrt(6.0))
KAPPA_SUFFICIENT_3D = 2.0 + math.sqrt(3.0)
# Generated kappa stays this far (relative) from every threshold.
MARGIN = 1e-6

EXIT_CODES = {"Convex": 0, "NotConvex": 1, "Undetermined": 2}
EXIT_USAGE = 64

# Rounds in one block, the run at --seconds BLOCK_SECONDS (the
# run_seconds of BENCHMARK.json); --seconds S runs
# max(1, round(S / BLOCK_SECONDS)) blocks.  The counts are fixed, so the request stream, and with it the
# ranks the latency percentiles land on, is the same on every run and every
# commit however fast the ops are.
ROUNDS = {"analyze-gap": 4, "analyze-cli": 4, "boundary-sweep": 1,
          "lemmas-grid": 1}
BLOCK_SECONDS = 10

# analyze-gap: one matrix per dim 3..8 and a second at dim 6.  Latency
# rises with dim, so with equal counts the median would sit on the edge
# between the dim-5 and dim-6 groups.  With the extra dim-6 op a block of
# 4 rounds, sorted by dim, holds dim 6 at ranks 13-20 of 28, and both the
# median (rank 14) and the tail (rank 18, see ``run.percentile_ranks``)
# fall inside it, at any number of blocks.
GAP_ROUND_DIMS = (3, 4, 5, 6, 6, 7, 8)
GAP_INTENDED_GROUP = "dim 6"

# analyze-cli: 18 accepted inputs on the rungs decided without a search,
# at dims 1..8, plus 2 rejected inputs (exit 64) per round of 20.
CLI_ROUND = (
    [("exact-2d", 2)] * 3 + [("sufficient-3d", 3)] * 2
    + [("sufficient-any-dim", d) for d in (1, 4, 5, 6, 7, 8)]
    + [("necessary-violated", d) for d in range(2, 9)]
    + [("rejected", None)] * 2
)
REJECT_KINDS = ("asymmetric", "not-pd", "malformed")

BOUNDARY_KINDS = ("two_point", "geometric", "pinned_pair")
BOUNDARY_DIMS = (2, 3, 4)
BOUNDARY_TOL = 1e-4
BOUNDARY_BRACKET = (1.0, 8.0)

# Default grids of ``kantorovich lemmas`` (box, omega, alpha/beta).
LEMMA_GRIDS = {"box": 41, "omega": 21, "ab": 41}
LEMMA_ROWS = ("box_chi1", "box_chi2", "box_chi3", "box_chi4", "box_psi",
              "robust_M", "robust_P", "robust_Q", "detm_d2", "detm_d4",
              "detm_min_at_zero", "detm_alpha0")

# Small sizes used by the smoke test.
TINY_PLAN_ARGS = ["--samples-2d", "64", "--samples-3d", "400",
                  "--samples-nd", "400", "--refine-rounds", "2"]
TINY_LEMMA_GRID = 5
TINY_BOUNDARY_TOL = 1e-2


def pinned_env() -> dict:
    """Environment for every child: one BLAS/OpenMP thread, src on the path."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spd(rng, n, kappa, scale):
    """Random rotation times a spectrum 1..kappa (ends pinned), times scale."""
    lam = np.empty(n)
    lam[0] = 1.0
    lam[-1] = kappa
    if n > 2:
        lam[1:-1] = rng.uniform(1.0, kappa, size=n - 2)
    if n == 1:
        lam[0] = 1.0
    q = _rotation(rng, n)
    a = scale * ((q * lam) @ q.T)
    return 0.5 * (a + a.T)


def _scale(rng):
    return float(10.0 ** rng.uniform(-2.0, 2.0))


def _inside(rng, lo, hi):
    return float(rng.uniform(lo * (1.0 + MARGIN), hi * (1.0 - MARGIN)))


def matrix_text(a, fmt):
    n = a.shape[0]
    if fmt == "json":
        entries = ", ".join(repr(float(v)) for v in a.reshape(-1))
        return '{"n": %d, "entries": [%s]}\n' % (n, entries)
    rows = [" ".join(repr(float(v)) for v in row) for row in a]
    return f"{n}\n" + "\n".join(rows) + "\n"


@dataclass
class MatrixCase:
    """One analyze input: the matrix, its file and the targeted rung."""

    rung: str
    dim: int
    kappa: float
    matrix: np.ndarray | None
    path: str


def gap_case(rng, dim, path):
    lo = KAPPA_SUFFICIENT_3D if dim == 3 else KAPPA_SUFFICIENT_ANY
    kappa = _inside(rng, lo, KAPPA_NECESSARY)
    a = _spd(rng, dim, kappa, _scale(rng))
    Path(path).write_text(matrix_text(a, "plain"), encoding="utf-8")
    return MatrixCase("gap", dim, kappa, a, path)


def cli_case(rng, rung, dim, path):
    fmt = "json" if rng.random() < 0.5 else "plain"
    if rung == "rejected":
        return _rejected_case(rng, path, fmt)
    if dim == 1:
        kappa = 1.0
    elif rung == "exact-2d":
        kappa = float(rng.uniform(1.0, KAPPA_NECESSARY * (1.0 - MARGIN)))
    elif rung == "sufficient-3d":
        kappa = float(rng.uniform(1.0, KAPPA_SUFFICIENT_3D * (1.0 - MARGIN)))
    elif rung == "sufficient-any-dim":
        kappa = float(rng.uniform(1.0, KAPPA_SUFFICIENT_ANY * (1.0 - MARGIN)))
    else:
        kappa = float(KAPPA_NECESSARY * 10.0 ** rng.uniform(0.01, 1.2))
    a = _spd(rng, dim, kappa, _scale(rng))
    Path(path).write_text(matrix_text(a, fmt), encoding="utf-8")
    return MatrixCase(rung, dim, kappa, a, path)


def _rejected_case(rng, path, fmt):
    kind = REJECT_KINDS[int(rng.integers(len(REJECT_KINDS)))]
    dim = int(rng.integers(2, 9))
    a = _spd(rng, dim, float(rng.uniform(1.5, 4.0)), _scale(rng))
    if kind == "asymmetric":
        a[0, 1] += 1e-3 * float(np.abs(a).max())
        text = matrix_text(a, fmt)
    elif kind == "not-pd":
        q = _rotation(rng, dim)
        lam = rng.uniform(0.5, 2.0, size=dim)
        lam[0] = -float(rng.uniform(0.1, 1.0))
        b = (q * lam) @ q.T
        text = matrix_text(0.5 * (b + b.T), fmt)
    elif fmt == "json":
        text = '{"n": %d, "entries": [1.0, 2.0]}\n' % dim
    else:
        rows = matrix_text(a, "plain").splitlines()
        rows[1] = rows[1].replace(" ", " x", 1)
        text = "\n".join(rows) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return MatrixCase(f"rejected-{kind}", dim, math.nan, None, path)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def witness_rechecks(a, point) -> bool:
    """A NotConvex witness must make hess f indefinite, in x-space."""
    from kantorovich.function import f_hessian
    from kantorovich.linalg import validate_spd
    h = f_hessian(validate_spd(a), np.asarray(point, dtype=float))
    return bool(np.linalg.eigvalsh(h)[0] < 0.0)


def _close(x, y, rel=1e-9):
    return abs(x - y) <= rel * max(1.0, abs(y))


def check_report(report) -> str | None:
    if report is None:
        return "Undetermined without a report"
    if not report["worst_value"] >= -report["tolerance"]:
        return "report worst_value below -tolerance"
    if not _close(float(np.linalg.norm(report["worst_point"])), 1.0, 1e-12):
        return "report worst_point is not unit-norm"
    return None


def check_gap_output(case, rc, out) -> str | None:
    try:
        obj = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    status, cert = obj.get("status"), obj.get("certificate")
    if rc != EXIT_CODES.get(status):
        return f"exit {rc} does not match status {status}"
    if obj.get("dim") != case.dim or not _close(obj["kappa"], case.kappa):
        return "dim or kappa differs from the input"
    if (status, cert) == ("Undetermined", "sampling-exhausted"):
        if obj.get("witness") is not None:
            return "Undetermined with a witness"
        return check_report(obj.get("report"))
    if (status, cert) == ("NotConvex", "witness-found"):
        w = obj.get("witness")
        if w is None or not witness_rechecks(case.matrix, w["point"]):
            return "witness does not re-check in x-space"
        return None
    return f"gap matrix got {status}/{cert}"


def _human_fields(out):
    fields = {}
    for line in out.splitlines():
        key, sep, val = line.partition(": ")
        if sep and not line.startswith(" "):
            fields[key] = val
    return fields


def check_cli_output(case, rc, out, err) -> str | None:
    if case.rung.startswith("rejected"):
        if rc != EXIT_USAGE:
            return f"rejected input exited {rc}"
        if out or not err.startswith("error:"):
            return "rejected input did not report a usage error"
        return None
    f = _human_fields(out)
    status, cert = f.get("status"), f.get("certificate")
    if rc != EXIT_CODES.get(status):
        return f"exit {rc} does not match status {status}"
    if cert != case.rung:
        return f"certificate {cert} where {case.rung} was targeted"
    if f.get("dim") != str(case.dim) or not _close(float(f["kappa"]),
                                                   case.kappa):
        return "dim or kappa differs from the input"
    if case.rung == "necessary-violated":
        if status != "NotConvex" or "witness" not in f:
            return "necessary-violated without a probe witness"
        point = [float(v) for v in f["witness"].split(",")]
        if not witness_rechecks(case.matrix, point):
            return "witness does not re-check in x-space"
    elif status != "Convex" or "witness" in f:
        return f"{case.rung} did not give a clean Convex"
    return None


def check_boundary_row(row, plan) -> str | None:
    from kantorovich import boundary
    if row.estimate is None:
        return f"probe failed: {row.error}"
    e, dim = row.estimate, row.family.dim
    if not e.kappa_hi - e.kappa_lo <= e.tol:
        return "bracket wider than tol"
    floor = {2: KAPPA_NECESSARY, 3: KAPPA_SUFFICIENT_3D}.get(
        dim, KAPPA_SUFFICIENT_ANY)
    if e.kappa_lo < floor - e.tol:
        return "kappa_lo below the sufficient threshold"
    if e.kappa_hi > KAPPA_NECESSARY + e.tol:
        return "kappa_hi above 3+2*sqrt(2)"
    if dim == 2 and not (e.kappa_lo <= KAPPA_NECESSARY * (1 + 1e-12)
                         and e.kappa_hi >= KAPPA_NECESSARY * (1 - 1e-12)):
        return "dim-2 row does not bracket 3+2*sqrt(2)"
    spd = row.family.spd(e.kappa_hi)
    w = boundary.falsify(spd, plan)
    if w is None or not witness_rechecks(spd.matrix, w.point):
        return "no x-space witness at kappa_hi"
    return None


def check_lemmas(rc, out, grids) -> tuple[list[str | None], list[int]]:
    """Per-row failure messages and per-row cell counts."""
    from kantorovich.lmi import Axis, GridSpec, robust_psd_grid
    box, omega, ab = grids["box"], grids["omega"], grids["ab"]
    cells = ([box ** 3] * 5 + [omega ** 3 * ab ** 2] * 3
             + [omega ** 3 * ab] * 4)
    rows = list(csv.reader(io.StringIO(out)))
    errors: list[str | None] = [None] * len(LEMMA_ROWS)
    if rc != 0 or not rows or rows[0] != ["grid_id", "coords", "min_value",
                                          "tolerance", "passed"]:
        return [f"lemmas exited {rc} or bad header"] * len(LEMMA_ROWS), cells
    body = rows[1:]
    if [r[0] for r in body] != list(LEMMA_ROWS):
        return ["rows missing or out of the documented order"] * len(
            LEMMA_ROWS), cells
    for k, (grid_id, coords, min_value, tol, passed) in enumerate(body):
        value = float(min_value)
        if passed != "true" or not value >= -float(tol):
            errors[k] = f"{grid_id} did not pass"
        elif grid_id.startswith("robust_"):
            c = [float(v) for v in coords.split(";")]
            one = robust_psd_grid(
                grid_id[-1], GridSpec(tuple(Axis(v, v, 1) for v in c[:3])),
                GridSpec(tuple(Axis(v, v, 1) for v in c[3:])))
            if not _close(one.worst_value, value, 1e-12):
                errors[k] = f"{grid_id} does not re-evaluate to min_value"
    return errors, cells


# ---------------------------------------------------------------------------
# workload runs
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Fixed work, independent of the package, timed between requests.

    On a shared machine the speed of a core drifts by up to ~1.5x over tens
    of seconds with the load of other tenants.  On analyze-gap and
    analyze-cli each request's time is scaled by PROBE_NOMINAL_S over the
    mean of the probes taken just before and just after it (on the others
    by the ArrayProbes a ProbedClock takes), so the reported times read as
    times on a core of fixed speed.  Set-up is scaled the same
    way, by the probes at child start and at the end of set-up.  The probe
    mixes the kinds of work the package does: a batched LAPACK eigensolve,
    elementwise numpy, many small numpy calls and interpreted Python.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((1500, 6, 6))
        self.stack = s + s.transpose(0, 2, 1)
        self.x = rng.standard_normal(60_000)
        self.small = self.stack[0, :4, :4].copy()

    def _once(self) -> float:
        t = time.perf_counter()
        np.linalg.eigvalsh(self.stack)
        for _ in range(3):
            np.sqrt(np.abs(np.sin(self.x)) + 1.0)
        for _ in range(150):
            np.linalg.eigvalsh(self.small)
            np.outer(self.small[0], self.small[1])
        s = 0
        for i in range(25_000):
            s += i * i
        return time.perf_counter() - t

    def __call__(self) -> float:
        return statistics.median(self._once() for _ in range(3))


# The probe's time on an unloaded core of the machine the benchmark was
# tuned on (Xeon, 2 CPUs); only the ratio to it matters.
PROBE_NOMINAL_S = 0.012


class ArrayProbe:
    """Fixed elementwise work on arrays larger than a core's L2 cache.

    The lemma scan and the boundary searches stream arrays of 6-25 MB
    through elementwise numpy, so their speed follows the shared cache and
    memory more than the core, and SpeedProbe, whose data stays in L2,
    tracks it less well.  This probe does
    the same kind of work without the package: a closed-form-like chain of
    ufuncs over 750k values and one pass over 3M values.  It runs in a
    helper process of its own (``serve_array_probe``), so neither its
    arrays nor its allocations touch the workload child's memory.
    """

    def _once(self) -> float:
        t = time.perf_counter()
        x = np.linspace(0.1, 1.0, 750_000)
        y = 0.5 * x[::-1]
        a = x * x + y
        b = np.sqrt(a) * y - a
        c = np.cos(np.arccos(np.clip(b, -1.0, 1.0)) / 3.0)
        np.minimum(a, c).argmin()
        z = np.linspace(0.1, 1.0, 3_000_000)
        z *= 1.5
        z += 0.5
        z.min()
        return time.perf_counter() - t

    def __call__(self) -> float:
        return statistics.median(self._once() for _ in range(3))


# ArrayProbe's time on the same core, as PROBE_NOMINAL_S is SpeedProbe's.
ARRAY_PROBE_NOMINAL_S = 0.035


def serve_array_probe():
    """Answer each line on stdin with one ArrayProbe time, until it closes."""
    probe = ArrayProbe()
    probe()
    for _ in sys.stdin:
        print(repr(probe()), flush=True)


# The requests of analyze-gap (0.03-1.5 s) and analyze-cli are scaled by
# SpeedProbes taken between them (``RunState.add``); an ArrayProbe around
# every short request would evict its caches.  A request of boundary-sweep
# (one family, 0.5-9 s) or lemmas-grid (one 10-16 s scan) is long enough
# for the speed to drift during it (on lemmas-grid, scaling by probes
# around it tripled its run-to-run spread), so it is timed by a
# ProbedClock.

# Interval of the probes a ProbedClock takes while its request runs.
PROBE_EVERY_S = 0.5
# A probe this recent is reused as the first probe of the next request.
PROBE_REUSE_S = 0.25


class ArrayProber:
    """The helper process that runs ArrayProbes on the child's core.

    Started at the first probe and kept for the child's life, so a request
    does not wait for a process start; ``close`` stops it.
    """

    def __init__(self):
        self.proc = None
        self.last = (-math.inf, math.nan)     # (perf_counter, probe time)

    def __call__(self) -> float:
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--serve-array-probe"], env=pinned_env(), text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        value = float(self.proc.stdout.readline())
        self.last = (time.perf_counter(), value)
        return value

    def recent(self) -> float:
        """The last probe if it ended under PROBE_REUSE_S ago, else a new one."""
        t, value = self.last
        if time.perf_counter() - t < PROBE_REUSE_S:
            return value
        return self()

    def close(self):
        if self.proc is None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


class ProbedClock:
    """Times one in-process request at nominal core speed, probing as it runs.

    A real-time interval timer interrupts the request every PROBE_EVERY_S;
    the handler runs at the next bytecode boundary, after the numpy call in
    progress, and waits there while the ArrayProber's helper process runs
    an ArrayProbe on the same core.  Each stretch of the request between two
    probes (the first just before the request, the last just after it) is
    scaled by ARRAY_PROBE_NOMINAL_S over the mean of those two probes, so a
    drift of speed during the request is followed, not only its ends.  The
    probes' own time is excluded.  Nothing in the package is patched, so
    the clock does not depend on how the package splits its work into
    functions.

    With ``probe`` None it only times the request, at speed 1: a traced run
    must not have probes inside its spans.
    """

    def __init__(self, probe: ArrayProber | None):
        self.probe = probe
        self.seconds = 0.0      # request time, probes excluded
        self.nominal = 0.0      # the same at nominal core speed
        self.probes = 0
        self.active = False

    def speed(self) -> float:
        return self.nominal / self.seconds

    def _cut(self):
        now = time.perf_counter()
        p = self.probe()
        stretch = now - self.start
        self.seconds += stretch
        self.nominal += stretch * ARRAY_PROBE_NOMINAL_S / (
            0.5 * (self.prev + p))
        self.prev = p
        self.probes += 1
        self.start = time.perf_counter()

    def _alarm(self, signum, frame):
        self._cut()
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def __enter__(self):
        if self.probe is None:
            self.start = time.perf_counter()
            return self
        self.prev = self.probe.recent()
        self.active = True
        self.old_handler = signal.signal(signal.SIGALRM, self._alarm)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.probe is None:
            self.seconds = self.nominal = time.perf_counter() - self.start
            return
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            self._cut()
        finally:
            signal.signal(signal.SIGALRM, self.old_handler)


@dataclass
class Request:
    """One timed request: a matrix analyzed, a family probed, a lemmas run.

    ``speed`` is PROBE_NOMINAL_S over the probe time around the request on
    analyze-gap and analyze-cli, and from a ProbedClock's probes on
    boundary-sweep and lemmas-grid (1 in their traced runs).
    """

    seconds: float
    ops: int
    group: str
    failed_ops: int = 0
    speed: float = math.nan


@dataclass
class RunState:
    name: str
    seed: int
    seconds: float
    tiny: bool
    t0: float
    workdir: Path
    setup_s: float = math.nan
    setup_speed: float = math.nan
    rounds: int = 0
    requests: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    fingerprint_parts: list = field(default_factory=list)
    tracer: object = None
    op_id: int = 0
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    array_probe: ArrayProber = field(default_factory=ArrayProber)
    first_probe: float = math.nan
    last_probe: float = math.nan
    inner_probes: int = 0

    def start_setup(self):
        """Probe the core at child start; the probe's own time is excluded."""
        t = time.perf_counter()
        self.first_probe = self.probe()
        self.t0 += time.perf_counter() - t

    def mark_ready(self):
        if math.isnan(self.setup_s):
            self.setup_s = time.perf_counter() - self.t0
            self.last_probe = self.probe()
            self.setup_speed = PROBE_NOMINAL_S / (
                0.5 * (self.first_probe + self.last_probe))

    def add(self, req):
        """Add a request scaled by the SpeedProbes just before and after it."""
        p = self.probe()
        req.speed = PROBE_NOMINAL_S / (0.5 * (self.last_probe + p))
        self.last_probe = p
        self.requests.append(req)

    def clock(self) -> ProbedClock:
        """Clock for one in-process request; it probes unless traced."""
        return ProbedClock(self.array_probe if self.tracer is None else None)

    def add_timed(self, clock, ops, group) -> Request:
        self.inner_probes += clock.probes
        req = Request(clock.seconds, ops, group, speed=clock.speed())
        self.requests.append(req)
        return req

    def fail(self, req, n_ops, message):
        req.failed_ops += n_ops
        if len(self.failures) < 20:
            self.failures.append(f"{req.group}: {message}")

    def timed(self) -> float:
        return sum(r.seconds for r in self.requests)

    def block_rounds(self) -> int:
        return 1 if self.tiny else ROUNDS[self.name]

    def done(self, rounds: int) -> bool:
        """True after the last round: one when tiny, else the fixed count."""
        self.rounds = rounds
        blocks = max(1, round(self.seconds / BLOCK_SECONDS))
        return self.tiny or rounds >= self.block_rounds() * blocks

    @contextlib.contextmanager
    def op(self):
        """Op context for the tracer; spans are recorded only inside it."""
        if self.tracer is not None:
            self.tracer.begin_op(self.op_id)
        try:
            yield self.op_id
        finally:
            if self.tracer is not None:
                self.tracer.end_op()
            self.op_id += 1


def _run_cli_inprocess(argv):
    """``cli.run(argv)`` with stdout captured; a crash is reported, not raised.

    Returns (exit code or None, stdout or the exception, seconds).
    """
    from kantorovich import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        t = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as exc:
            rc = None
            out = io.StringIO(repr(exc))
        dt = time.perf_counter() - t
    return rc, out.getvalue(), dt


def run_analyze_gap(st: RunState, setup_only: bool):
    rng = np.random.default_rng([st.seed, 1])
    extra = TINY_PLAN_ARGS if st.tiny else []
    # Fill the sphere-design caches with one untimed op per dim.
    for dim in sorted(set(GAP_ROUND_DIMS)):
        case = gap_case(rng, dim, str(st.workdir / f"warm{dim}.txt"))
        _run_cli_inprocess(["analyze", case.path, "--format", "json"] + extra)
    rounds = 0
    while True:
        order = rng.permutation(GAP_ROUND_DIMS)
        cases = [gap_case(rng, int(d), str(st.workdir / f"gap{k}.txt"))
                 for k, d in enumerate(order)]
        st.mark_ready()
        if setup_only:
            return
        done = []
        for case in cases:
            with st.op():
                rc, out, dt = _run_cli_inprocess(
                    ["analyze", case.path, "--format", "json"] + extra)
            req = Request(dt, 1, f"dim {case.dim}")
            st.add(req)
            done.append((case, rc, out, req))
        for case, rc, out, req in done:
            msg = check_gap_output(case, rc, out)
            if msg:
                st.fail(req, 1, msg)
            if rounds == 0:
                st.fingerprint_parts.append(out)
        rounds += 1
        if st.done(rounds):
            return


def _cli_command(st: RunState, op_id: int, path: str):
    if st.tracer is None:
        return [sys.executable, "-m", "kantorovich", "analyze", path]
    spans = st.workdir / f"spans{op_id}.json"
    return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans),
            str(op_id), "analyze", path]


def run_analyze_cli(st: RunState, setup_only: bool):
    rng = np.random.default_rng([st.seed, 2])
    env = pinned_env()
    # One untimed invocation, so the first timed one finds warm caches.
    warm = cli_case(rng, "exact-2d", 2, str(st.workdir / "warm.txt"))
    subprocess.run([sys.executable, "-m", "kantorovich", "analyze",
                    warm.path], env=env, capture_output=True, timeout=120)
    rounds = 0
    while True:
        order = rng.permutation(len(CLI_ROUND))
        cases = [cli_case(rng, *CLI_ROUND[i], str(st.workdir / f"cli{k}"))
                 for k, i in enumerate(order)]
        st.mark_ready()
        if setup_only:
            return
        done = []
        for case in cases:
            with st.op() as op_id:
                cmd = _cli_command(st, op_id, case.path)
                t = time.perf_counter()
                proc = subprocess.run(cmd, env=env, capture_output=True,
                                      text=True, timeout=120)
                dt = time.perf_counter() - t
            group = f"{case.rung} dim {case.dim}"
            req = Request(dt, 1, group)
            st.add(req)
            done.append((case, proc, req))
            if st.tracer is not None:
                spans = Path(cmd[2])
                if spans.is_file():
                    st.tracer.merge(json.loads(spans.read_text()))
                    spans.unlink()
        for case, proc, req in done:
            msg = check_cli_output(case, proc.returncode, proc.stdout,
                                   proc.stderr)
            if msg:
                st.fail(req, 1, msg)
            if rounds == 0:
                st.fingerprint_parts.append(
                    f"{proc.returncode}\n{proc.stdout}")
        rounds += 1
        if st.done(rounds):
            return


def run_boundary_sweep(st: RunState, setup_only: bool):
    from kantorovich import boundary
    from kantorovich.sampling import SamplePlan, all_samples
    if st.tiny:
        plan = SamplePlan(seed=st.seed, angles_2d=64, fibonacci_3d=400,
                          random_nd=400, refine_rounds=2)
        tol, dims = TINY_BOUNDARY_TOL, (2, 3)
    else:
        plan, tol, dims = SamplePlan(seed=st.seed), BOUNDARY_TOL, BOUNDARY_DIMS
    families = [boundary.EigenFamily(kind=k, dim=d)
                for k in BOUNDARY_KINDS for d in dims]
    for d in dims:
        all_samples(d, plan)
    rounds = 0
    while True:
        st.mark_ready()
        if setup_only:
            return
        rows, reqs = [], []
        for fam in families:
            with st.op(), st.clock() as clock:
                try:
                    got = boundary.sweep([fam], tol=tol, plan=plan,
                                         bracket=BOUNDARY_BRACKET)
                except Exception as exc:  # a crash fails the whole row
                    got = [boundary.SweepRow(fam, None, repr(exc))]
            row = got[0]
            steps = len(row.estimate.steps) if row.estimate else 1
            req = st.add_timed(clock, steps, f"{fam.kind} dim {fam.dim}")
            rows.append(row)
            reqs.append(req)
        for row, req in zip(rows, reqs):
            msg = check_boundary_row(row, plan)
            if msg:
                st.fail(req, req.ops, msg)
        if rounds == 0:
            text = boundary.sweep_csv(rows)
            # wall_ms is the one column allowed to differ between reruns.
            st.fingerprint_parts.append("\n".join(
                line.rsplit(",", 1)[0] for line in text.splitlines()))
        rounds += 1
        if st.done(rounds):
            return


def run_lemmas_grid(st: RunState, setup_only: bool):
    if st.tiny:
        argv = ["lemmas", "--grid", str(TINY_LEMMA_GRID), "--format", "csv"]
        grids = dict.fromkeys(LEMMA_GRIDS, TINY_LEMMA_GRID)
    else:
        argv, grids = ["lemmas", "--format", "csv"], LEMMA_GRIDS
    _run_cli_inprocess(["lemmas", "--grid", "3", "--format", "csv"])
    rounds = 0
    while True:
        st.mark_ready()
        if setup_only:
            return
        with st.op(), st.clock() as clock:
            rc, out, _ = _run_cli_inprocess(argv)
        errors, cells = check_lemmas(rc, out, grids)
        req = st.add_timed(clock, sum(cells), "lemmas")
        for msg, n in zip(errors, cells):
            if msg:
                st.fail(req, n, msg)
        if rounds == 0:
            st.fingerprint_parts.append(out)
        rounds += 1
        if st.done(rounds):
            return


RUNNERS = {
    "analyze-gap": run_analyze_gap,
    "analyze-cli": run_analyze_cli,
    "boundary-sweep": run_boundary_sweep,
    "lemmas-grid": run_lemmas_grid,
}


def environment() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: dep.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(),
            "pinned_to": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": threads}


def import_ms(reps: int = 5) -> float:
    """Fresh-interpreter ``import kantorovich.cli`` minus a bare start."""
    env = pinned_env()
    bare, full = [], []
    for _ in range(reps):
        for code, out in (("pass", bare), ("import kantorovich.cli", full)):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           timeout=60)
            out.append(time.perf_counter() - t)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def run_workload(name: str, seed: int, seconds: float, *, traced=False,
                 tiny=False, setup_only=False, t0=None) -> dict:
    """Run one workload in this process and return its raw result."""
    import kantorovich
    if Path(kantorovich.__file__).resolve().parent != SRC / "kantorovich":
        raise RuntimeError(f"kantorovich imported from {kantorovich.__file__},"
                           f" not from {SRC}")
    workdir = OUT / f"work-{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    st = RunState(name, seed, seconds, tiny,
                  time.perf_counter() if t0 is None else t0, workdir)
    st.start_setup()
    if traced:
        from tracer import Tracer
        st.tracer = Tracer()
        st.tracer.install()
    try:
        RUNNERS[name](st, setup_only)
    finally:
        st.array_probe.close()
        if st.tracer is not None:
            st.tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"workload": name, "seed": seed, "setup_s": st.setup_s,
              "setup_speed": st.setup_speed}
    if setup_only:
        return result
    ops = sum(r.ops for r in st.requests)
    failed = sum(r.failed_ops for r in st.requests)
    # analyze-cli: the largest of the CLI processes it started, not this
    # harness process, which holds numpy, the package and the outputs.
    who = (resource.RUSAGE_CHILDREN if name == "analyze-cli"
           else resource.RUSAGE_SELF)
    rss = resource.getrusage(who).ru_maxrss
    fp = "".join(st.fingerprint_parts).encode()
    result.update({
        "timed_s": st.timed(),
        "rounds": st.rounds,
        "block_rounds": st.block_rounds(),
        "attempted": ops,
        "failed": failed,
        "requests": [[r.seconds, r.ops, r.group, r.speed]
                     for r in st.requests],
        "peak_rss_mb": rss / 1024.0,
        "inner_probes": st.inner_probes,
        "fingerprint": {"sha256": hashlib.sha256(fp).hexdigest(),
                        "scope": "stdout of the first round"},
        "failures": st.failures,
        "environment": environment(),
    })
    if traced:
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{name}-seed{seed}.csv.gz"
        st.tracer.write_spans(span_file)
        layers = st.tracer.layer_metrics(ops)
        layers["cli.import_ms"] = (import_ms(3 if tiny else 5), "ms")
        layers["trace.ops_per_s"] = (
            ops / sum(r.seconds * r.speed for r in st.requests), "ops/s")
        layers["trace.absent"] = (len(st.tracer.absent), "count")
        result["layers"] = layers
        result["absent"] = st.tracer.absent
        result["reader_errors"] = dict(st.tracer.reader_errors)
        result["span_file"] = str(span_file.relative_to(ROOT))
        result["spans"] = len(st.tracer.code)
    return result


def main(argv=None) -> int:
    if (sys.argv[1:] if argv is None else argv) == ["--serve-array-probe"]:
        serve_array_probe()
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    # One core for the child and its own children, so the speed probe
    # times the core the requests run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run_workload(args.workload, args.seed, args.seconds,
                          traced=args.trace, setup_only=args.setup_only,
                          t0=args.t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
