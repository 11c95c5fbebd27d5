"""Command-line interface: analyze matrices, run the grid certificates,
probe empirical thresholds, and spot-check derivatives and bounds.

Exit codes: 0 convex / all checks passed, 1 not convex / a check failed,
2 undetermined, 64 bad input (files, flags, malformed vectors), 70 runtime
failure.  No network, no environment variables, deterministic for a fixed
seed (the sweep's wall_ms column excepted).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING

from .classify import (KAPPA_NECESSARY, KAPPA_SUFFICIENT_3D,
                       KAPPA_SUFFICIENT_ANY, Status, classify)
from .linalg import MAX_DIM, MatrixValidationError, pair_indices, validate_spd

if TYPE_CHECKING:
    from .plan import SamplePlan
# numpy, json, the plan and the modules that import numpy are imported by
# the commands and rungs that use them: a human-format analyze that kappa
# decides loads none of them.

EXIT_CONVEX = 0
EXIT_NOT_CONVEX = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 64
EXIT_RUNTIME = 70

_STATUS_EXIT = {
    Status.CONVEX: EXIT_CONVEX,
    Status.NOT_CONVEX: EXIT_NOT_CONVEX,
    Status.UNDETERMINED: EXIT_UNDETERMINED,
}


# ---------------------------------------------------------------------------
# matrix files
# ---------------------------------------------------------------------------

def parse_matrix_text(text: str) -> list[list[float]]:
    """The rows of a plain-text matrix file, as Python floats."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 1:
        raise ValueError("first line must hold the dimension only")
    try:
        n = int(head[0])
    except ValueError:
        raise ValueError(f"bad dimension line {lines[0]!r}") from None
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [float(tok) for tok in ln.split()]
        except ValueError:
            raise ValueError(f"bad matrix row {ln!r}") from None
        if len(row) != n:
            raise ValueError(f"row {ln!r} does not have {n} entries")
        rows.append(row)
    return rows


def parse_matrix_json(text: str) -> list[list[float]]:
    """The rows of a JSON matrix file, as Python floats."""
    import json
    try:
        obj = json.loads(text)
    except RecursionError:  # arrays or objects nested too deep to decode
        raise ValueError("matrix JSON is nested too deeply") from None
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError('matrix JSON must be {"n": ..., "entries": [...]}')
    n, entries = obj["n"], obj["entries"]
    # type() is exact: a JSON true/false reads as bool, a subclass of int.
    if type(n) is not int or n < 1:
        raise ValueError("n must be a positive integer")
    if (not isinstance(entries, list)
            or not all(type(v) in (int, float) for v in entries)):
        raise ValueError("entries must be a flat array of numbers")
    if len(entries) != n * n:
        raise ValueError(f"entries must hold {n * n} numbers row-major")
    try:
        values = [float(v) for v in entries]
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError("matrix has non-finite entries") from None
    return [values[i:i + n] for i in range(0, n * n, n)]


def read_matrix_file(path: str) -> list[list[float]]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().removeprefix("\ufeff")  # one byte-order mark
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return parse_matrix_json(text)
    return parse_matrix_text(text)


def _parse_floats(text: str, what: str):
    import numpy as np
    try:
        return np.asarray([float(tok) for tok in text.split(",")])
    except ValueError:
        raise ValueError(f"malformed {what} {text!r}") from None


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _delta_lines(delta) -> list[str]:
    """``delta``: ((i, j), delta_ij) in pair order."""
    return [f"  ({i + 1},{j + 1}) = {v!r}" for (i, j), v in delta]


def _threshold_lines() -> list[str]:
    return [
        f"  necessary (any dim):  3+2*sqrt(2)       = {KAPPA_NECESSARY!r}",
        "  sufficient (any dim): sqrt(5+2*sqrt(6)) = "
        f"{KAPPA_SUFFICIENT_ANY!r}",
        f"  sufficient (dim 3):   2+sqrt(3)         = {KAPPA_SUFFICIENT_3D!r}",
    ]


def _finite(v):
    """``v`` as a float for a JSON report: where it is not finite, the
    string "inf", "-inf" or "nan" that human output prints, as JSON has no
    token for those."""
    v = float(v)
    return v if math.isfinite(v) else repr(v)


def _report_dict(r):
    """A ``SampleReport``'s fields in order, the worst value :func:`_finite`;
    None for None."""
    return r and dict(vars(r), worst_value=_finite(r.worst_value))


def _json(o) -> str:
    """``json.dumps(o, indent=2)``.  A value that can be non-finite is
    passed through :func:`_finite` where the report is built; any other
    non-finite float raises ValueError rather than write a token that is
    not RFC 8259 JSON."""
    import json
    return json.dumps(o, indent=2, allow_nan=False)


def grid_reports_csv(reports) -> str:
    lines = ["grid_id,coords,min_value,tolerance,passed"]
    for r in reports:
        coords = ";".join(repr(c) for c in r.worst_cell)
        flag = "true" if r.passed else "false"
        lines.append(
            f"{r.grid_id},{coords},{r.worst_value!r},{r.tolerance!r},{flag}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# The plan flags: argparse dest -> SamplePlan field.  Each defaults to
# None, so that a command given none of them reads DEFAULT_PLAN and an
# analyze that kappa decides never imports the plan.
_PLAN_FIELDS = {"seed": "seed", "samples_2d": "angles_2d",
                "samples_3d": "fibonacci_3d", "samples_nd": "random_nd",
                "refine_rounds": "refine_rounds"}


def _plan_from_args(args) -> SamplePlan | None:
    """The plan of the plan flags given, the other fields at their
    defaults; None, meaning ``DEFAULT_PLAN``, where none is given."""
    given = {field: getattr(args, dest) for dest, field in _PLAN_FIELDS.items()
             if getattr(args, dest) is not None}
    if not given:
        return None
    from .plan import MAX_SAMPLES, SamplePlan
    for flag, n in (("--samples-2d", args.samples_2d),
                    ("--samples-3d", args.samples_3d),
                    ("--samples-nd", args.samples_nd)):
        if n is not None and n > MAX_SAMPLES:
            raise ValueError(f"{flag} allows at most {MAX_SAMPLES} samples, "
                             f"got {n}")
    return SamplePlan(**given)


def cmd_analyze(args) -> int:
    spd = validate_spd(read_matrix_file(args.matrix))
    plan = _plan_from_args(args)
    verdict = classify(spd, plan)
    # the Python floats that forms.delta_from_spd wraps
    delta = list(zip(pair_indices(spd.dim), spd.ratio_sums()))
    if args.format == "json":
        from .plan import or_default
        out = {
            "dim": spd.dim,
            "kappa": spd.kappa,
            "delta": [{"i": i + 1, "j": j + 1, "value": v}
                      for (i, j), v in delta],
            "thresholds": {"necessary": KAPPA_NECESSARY,
                           "sufficient_any": KAPPA_SUFFICIENT_ANY,
                           "sufficient_3d": KAPPA_SUFFICIENT_3D},
            "status": verdict.status.value,
            "certificate": verdict.certificate.value,
            "witness": verdict.witness and verdict.witness._asdict(),
            "report": _report_dict(verdict.report),
            "seed": or_default(plan).seed,
        }
        print(_json(out))
    else:
        print(f"dim: {spd.dim}")
        print(f"kappa: {spd.kappa!r}")
        print("delta:")
        for line in _delta_lines(delta):
            print(line)
        print("thresholds:")
        for line in _threshold_lines():
            print(line)
        print(f"status: {verdict.status.value}")
        print(f"certificate: {verdict.certificate.value}")
        if verdict.witness is not None:
            point = ",".join(map(repr, verdict.witness.point))
            print(f"witness: {point}")
            print(f"witness lambda_min: {verdict.witness.lambda_min!r}")
        if verdict.report is not None:
            r = verdict.report
            print(f"sampled worst value: {r.worst_value!r} "
                  f"(samples {r.samples}, tolerance {r.tolerance!r})")
    return _STATUS_EXIT[verdict.status]


def cmd_lemmas(args) -> int:
    from .lmi import (MAX_NODES, GridSpec, box_inequality_grid_check,
                      detm_alpha_convexity_check, robust_psd_grids)
    lo, hi = args.omega_min, args.omega_max
    if not lo < hi:
        raise ValueError("--omega-min must be below --omega-max")
    if not math.isfinite(hi - lo):
        raise ValueError("the span --omega-max - --omega-min must be finite")
    if args.grid is None:
        flags = ("--box-grid", "--omega-grid", "--ab-grid", "--alpha-grid")
        counts = (args.box_grid, args.omega_grid, args.ab_grid,
                  args.alpha_grid)
    else:
        flags, counts = ("--grid",) * 4, (args.grid,) * 4
    for flag, n in zip(flags, counts):
        if n < 2:
            raise ValueError(f"{flag} needs at least 2 nodes, got {n}")
        if n > MAX_NODES:
            raise ValueError(f"{flag} allows at most {MAX_NODES} nodes, "
                             f"got {n}")
    box_n, omega_n, ab_n, alpha_n = counts
    box = box_inequality_grid_check(GridSpec.cube(lo, hi, box_n, 3))
    omega_grid = GridSpec.cube(lo, hi, omega_n, 3)
    robust = robust_psd_grids(omega_grid, GridSpec.cube(-1, 1, ab_n, 2))
    detm = detm_alpha_convexity_check(omega_grid,
                                      GridSpec.cube(-1, 1, ab_n, 1),
                                      alpha_count=alpha_n)
    reports = [*box.reports, *robust, *detm.reports]
    passed = all(r.passed for r in reports)
    csv_text = grid_reports_csv(reports)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        for r in reports:
            cell = ",".join(repr(c) for c in r.worst_cell)
            flag = "PASS" if r.passed else "FAIL"
            print(f"{r.grid_id}: {flag}  min {r.worst_value!r} "
                  f"at ({cell})  [{r.cells} cells]")
        print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_boundary(args) -> int:
    from .boundary import FAMILY_KINDS, EigenFamily, sweep, sweep_csv
    from .plan import or_default
    kinds = [k.strip() for k in args.families.split(",") if k.strip()]
    for k in kinds:
        if k not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {k!r}")
    dims = []
    for tok in args.dims.split(","):
        tok = tok.strip()
        if tok:
            dims.append(int(tok))
    if not kinds or not dims:
        raise ValueError("need at least one family kind and one dim")
    plan = or_default(_plan_from_args(args))
    families = [EigenFamily(kind=k, dim=d) for k in kinds for d in dims]
    rows = sweep(families, tol=args.tol, plan=plan,
                 bracket=(args.bracket_lo, args.bracket_hi))
    csv_text = sweep_csv(rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        for row in rows:
            fam = row.family
            if row.estimate is None:
                print(f"{fam.kind} dim={fam.dim}: FAILED ({row.error})")
            else:
                e = row.estimate
                print(f"{fam.kind} dim={fam.dim}: kappa* in "
                      f"[{e.kappa_lo!r}, {e.kappa_hi!r}]  "
                      f"(tol {e.tol!r}, {len(e.steps)} probes, "
                      f"{e.samples} samples, {e.wall_ms} ms)")
    return 0 if all(r.estimate is not None for r in rows) else EXIT_RUNTIME


def cmd_lmi(args) -> int:
    from .forms import DeltaVector
    from .sampling import or_default, scan_design
    if not 2 <= args.dim <= MAX_DIM:
        raise ValueError(f"--dim must be between 2 and {MAX_DIM}")
    values = _parse_floats(args.delta, "--delta")
    npairs = args.dim * (args.dim - 1) // 2
    if values.shape != (npairs,):
        raise ValueError(
            f"--delta needs {npairs} values for dim {args.dim}, "
            f"got {values.shape[0]}")
    if values.size and values.min() < 2.0:
        raise ValueError("--delta entries must be >= 2")
    delta = DeltaVector(dim=args.dim, values=values)
    report = scan_design(delta, or_default(_plan_from_args(args)))
    if args.format == "json":
        print(_json({"dim": args.dim,
                     "delta": [float(v) for v in values],
                     "report": _report_dict(report)}))
    else:
        point = ",".join(map(repr, report.worst_point))
        print(f"dim: {args.dim}")
        print(f"samples: {report.samples}")
        print(f"worst value: {report.worst_value!r}")
        print(f"worst point: {point}")
        print(f"tolerance: {report.tolerance!r}")
        print(f"passed: {'true' if report.passed else 'false'}")
    return 0 if report.passed else 1


def cmd_hessian_check(args) -> int:
    import numpy as np

    from .function import f_hessian, fd_hessian
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    if args.seed < 0:
        raise ValueError("seed must be >= 0")
    if not (math.isfinite(args.step) and args.step > 0.0):
        raise ValueError("--step must be a finite number > 0, "
                         f"got {args.step!r}")
    if not args.tol > 0.0:
        raise ValueError(f"--tol must be a number > 0, got {args.tol!r}")
    spd = validate_spd(read_matrix_file(args.matrix))
    rng = np.random.default_rng(args.seed)
    worst = -math.inf
    for _ in range(args.points):
        x = rng.standard_normal(spd.dim)
        analytic = f_hessian(spd, x)
        numeric = fd_hessian(spd, x, step=args.step)
        scale = max(1.0, float(np.abs(analytic).max()))
        dev = float(np.abs(numeric - analytic).max()) / scale
        # np.maximum, unlike max(), keeps a NaN deviation, so it cannot pass.
        worst = float(np.maximum(worst, dev))
    ok = worst < args.tol
    print(f"dim: {spd.dim}")
    print(f"points: {args.points}")
    print(f"max relative deviation: {worst!r}")
    print(f"tolerance: {args.tol!r}")
    print(f"ok: {'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_kantorovich_bound(args) -> int:
    from .function import kantorovich_bound_check
    spd = validate_spd(read_matrix_file(args.matrix))
    x = _parse_floats(args.point, "--point")
    classical = kantorovich_bound_check(spd, x, "classical")
    printed = kantorovich_bound_check(spd, x, "as_printed")
    if args.format == "json":
        out = {
            "dim": spd.dim,
            "point": [float(v) for v in x],
            "k_value": _finite(classical.lhs),
            "classical": {"rhs": _finite(classical.rhs),
                          "holds": bool(classical.holds)},
            "as_printed": {"rhs": _finite(printed.rhs),
                           "holds": bool(printed.holds)},
        }
        print(_json(out))
    else:
        print(f"K(x) = {classical.lhs!r}")
        print(f"classical bound (l1+ln)^2/(4 l1 ln) * |x|^4: rhs = "
              f"{classical.rhs!r}, holds = "
              f"{'true' if classical.holds else 'false'}")
        print(f"as-printed variant (l1^2+ln^2)/(4 l1 ln) * |x|^4: rhs = "
              f"{printed.rhs!r}, holds = "
              f"{'true' if printed.holds else 'false'}")
    return 0 if classical.holds else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags, which collides with "undetermined";
    # route every usage problem to 64 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_plan_args(p: argparse.ArgumentParser) -> None:
    # default None: SamplePlan holds the defaults (see _plan_from_args)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples-2d", type=int,
                   help="equispaced angles in dim 2")
    p.add_argument("--samples-3d", type=int,
                   help="Fibonacci sphere points in dim 3")
    p.add_argument("--samples-nd", type=int,
                   help="Kronecker-sequence unit vectors in dim >= 4")
    p.add_argument("--refine-rounds", type=int,
                   help="accepted and validated (>= 0); has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kantorovich",
                     description="Convexity certification for "
                                 "(x'Ax)(x'A^-1x) on SPD matrices.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze", help="classify one matrix file")
    p.add_argument("matrix", help="matrix file (plain text or JSON)")
    p.add_argument("--format", choices=("human", "json"), default="human")
    _add_plan_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lemmas",
                       help="run the certified grid inequalities")
    p.add_argument("--grid", type=int, default=None,
                   help="override every node count at once")
    p.add_argument("--box-grid", type=int, default=41)
    p.add_argument("--omega-grid", type=int, default=21)
    p.add_argument("--ab-grid", type=int, default=41)
    p.add_argument("--alpha-grid", type=int, default=41)
    p.add_argument("--omega-min", type=float, default=2.0)
    p.add_argument("--omega-max", type=float, default=4.0)
    p.add_argument("--csv", default=None, help="also write worst cells here")
    p.add_argument("--format", choices=("human", "csv"), default="human")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("boundary", help="bisect empirical kappa thresholds")
    p.add_argument("--families", default="two_point,geometric")
    p.add_argument("--dims", default="2,3")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--bracket-lo", type=float, default=1.0)
    p.add_argument("--bracket-hi", type=float, default=8.0)
    p.add_argument("--csv", default=None)
    p.add_argument("--format", choices=("human", "csv"), default="human")
    _add_plan_args(p)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("lmi", help="sampled PSD check for explicit delta")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--delta", required=True,
                   help="comma-separated pair values, e.g. 2.5,3.0,2.8")
    p.add_argument("--format", choices=("human", "json"), default="human")
    _add_plan_args(p)
    p.set_defaults(func=cmd_lmi)

    p = sub.add_parser("hessian-check",
                       help="analytic vs finite-difference Hessian")
    p.add_argument("matrix")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_hessian_check)

    p = sub.add_parser("kantorovich-bound",
                       help="check the classical upper bound at a point")
    p.add_argument("matrix")
    p.add_argument("--point", required=True,
                   help="comma-separated coordinates, e.g. 1,1")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=cmd_kantorovich_bound)

    return parser


# Built by the first run() and reused: the parser holds no per-call state,
# and parse_args returns a fresh Namespace on every call.
_parser: argparse.ArgumentParser | None = None


def run(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatrixValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # BadInitialBracketError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run(sys.argv[1:]))
