"""Golden corpus: SHA-256 fingerprints of outputs that must stay bit for bit.

Six seeded corpora, each case hashed on its own:

- ``analyze``: stdout and exit code of ``kantorovich analyze FILE --format
  json`` on matrices at dims 1-8, with kappa in every regime and within
  1e-12..1e-6 relative of each threshold, rotated and diagonal, with tied
  and nearly tied eigenvalues, at scales 1e-30..1e30, plus rejected inputs;
- ``boundary``: stdout and exit code of ``kantorovich boundary --format
  csv``, with the ``wall_ms`` column removed;
- ``eig_sym``: the raw bytes of ``eig_sym(m).eigenvalues`` and
  ``.rotation`` on seeded symmetric matrices, definite or not;
- ``samples``: the raw bytes of the sphere designs ``all_samples(dim,
  plan)``, which in the gap never reach stdout (the worst direction there
  is a probe row);
- ``falsify``: the raw bytes of the ``classify.falsify`` witness (its point
  and ``lambda_min``, or none) at dims 2-8, with kappa on both sides of
  3 + 2 sqrt(2) and within 1e-12..1e-6 relative of it, and with tied
  eigenvalues;
- ``lmi``: stdout and exit code of ``kantorovich lmi --format json`` on
  passing, violating, tied and overflowing delta vectors.

Every input is built in Python floats from ``numpy.random.default_rng``
draws, so the inputs are the same bits on every platform; the outputs go
through LAPACK and BLAS and are pinned for the platform the fingerprints
were made on, as the lemmas golden in test_cli.py is.

The fingerprints live in ``golden_sha256.json``.  A change that means to
alter an output regenerates them with ``PYTHONPATH=src python
tests/test_golden.py`` and names every changed case.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from kantorovich.classify import (KAPPA_NECESSARY, KAPPA_SUFFICIENT_3D,
                                  KAPPA_SUFFICIENT_ANY)
from kantorovich.classify import falsify
from kantorovich.cli import run
from kantorovich.linalg import eig_sym, validate_spd
from kantorovich.sampling import SamplePlan, all_samples

GOLDEN = Path(__file__).with_name("golden_sha256.json")

SCALES = (1e-30, 1e-20, 1e-10, 1.0, 1e10, 1e20, 1e30)
THRESHOLDS = {"any": KAPPA_SUFFICIENT_ANY, "3d": KAPPA_SUFFICIENT_3D,
              "nec": KAPPA_NECESSARY}
OFFSETS = (1e-12, 1e-9, 1e-6)


# --- inputs, in Python floats ------------------------------------------------

def _rotation(rng, n):
    """Product of n Householder reflections from seeded normal draws, as a
    list of rows.  Rows of an orthogonal matrix up to rounding."""
    q = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        v = rng.standard_normal(n).tolist()
        norm = math.sqrt(sum(x * x for x in v))
        v = [x / norm for x in v]
        for row in q:
            d = 2.0 * sum(r * x for r, x in zip(row, v))
            row[:] = [r - d * x for r, x in zip(row, v)]
    return q


def _conjugate(q, w):
    """Q diag(w) Q', upper triangle summed in index order, then mirrored,
    so the matrix is exactly symmetric."""
    n = len(w)
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = 0.0
            for k in range(n):
                s += q[i][k] * w[k] * q[j][k]
            a[i][j] = a[j][i] = s
    return a


def _geometric(n, kappa):
    """n eigenvalues from 1 to kappa in geometric steps."""
    if n == 1:
        return [1.0]
    return [kappa ** (k / (n - 1)) for k in range(n)]


def _matrix(rng, w, scale, rotated):
    w = [x * scale for x in w]
    n = len(w)
    if rotated:
        return _conjugate(_rotation(rng, n), w)
    return [[w[i] if i == j else 0.0 for j in range(n)] for i in range(n)]


def analyze_cases():
    """name -> matrix file text."""
    rng = np.random.default_rng(2026)
    cases = {}

    def add(name, a):
        n = len(a)
        rows = (" ".join(repr(float(v)) for v in row) for row in a)
        cases[name] = "\n".join([str(n), *rows]) + "\n"

    kappas = {"k1": 1.0, "k2": 2.0, "k4.5": 4.5, "k10": 10.0, "k1e6": 1e6}
    for tag, t in THRESHOLDS.items():
        for r in OFFSETS:
            kappas[f"{tag}-{r:.0e}"] = t * (1.0 - r)
            kappas[f"{tag}+{r:.0e}"] = t * (1.0 + r)
    for scale in SCALES:
        add(f"d1-s{scale:.0e}", [[scale]])
    for n in range(2, 9):
        for k, (tag, kappa) in enumerate(kappas.items()):
            scale = SCALES[(n + k) % len(SCALES)]
            add(f"d{n}-{tag}-rot-s{scale:.0e}",
                _matrix(rng, _geometric(n, kappa), scale, True))
        for tag in ("k2", "k4.5", "k10", "nec+1e-09"):
            w = _geometric(n, kappas[tag])
            w[1:-1] = w[-2:0:-1]  # not sorted along the diagonal
            add(f"d{n}-{tag}-diag", _matrix(rng, w, 1.0, False))
        for tag in ("k2", "k4.5", "k10"):
            kappa = kappas[tag]
            # two-point spectrum: every eigenvalue tied to an end
            w = [1.0] * (n // 2) + [kappa] * (n - n // 2)
            add(f"d{n}-{tag}-tied-rot", _matrix(rng, w, 1e10, True))
            for gap in (1e-9, 1e-13):
                w = _geometric(n, kappa)
                if n > 2:
                    w[1] = w[0] * (1.0 + gap)
                else:
                    w[1] = w[0] * (1.0 + gap) * kappa
                add(f"d{n}-{tag}-near{gap:.0e}-rot",
                    _matrix(rng, w, 1e-10, True))
        w = _geometric(n, 4.0)
        w[0] = -1.0
        add(f"d{n}-indefinite", _matrix(rng, w, 1.0, True))
        add(f"d{n}-singular", _matrix(rng, [0.0] + _geometric(n - 1, 3.0),
                                      1.0, True))
    add("d3-asymmetric", [[1.0, 0.5, 0.0], [0.4, 2.0, 0.0], [0.0, 0.0, 3.0]])
    add("d9-too-large", [[float(i == j) for j in range(9)] for i in range(9)])
    return cases


BOUNDARY_CASES = {
    "defaults": [],
    "all-d2-4": ["--families", "two_point,geometric,pinned_pair",
                 "--dims", "2,3,4"],
    "all-d5-8-tol1e-6": ["--families", "two_point,geometric,pinned_pair",
                         "--dims", "5,6,7,8", "--tol", "1e-6"],
    "tol1e-9-d2-3-8": ["--families", "two_point,geometric,pinned_pair",
                       "--dims", "2,3,8", "--tol", "1e-9"],
    "tol1e-2-bracket": ["--families", "geometric", "--dims", "3,6",
                        "--tol", "1e-2", "--bracket-lo", "2",
                        "--bracket-hi", "7"],
    "seed-samples": ["--families", "pinned_pair", "--dims", "4",
                     "--seed", "7", "--samples-nd", "1000"],
    "bad-bracket": ["--families", "two_point", "--dims", "2",
                    "--tol", "1e-2", "--bracket-hi", "1e12"],
}


SAMPLE_CASES = {
    f"d{dim}-{name}": (dim, plan)
    for dim in range(1, 9)
    for name, plan in {
        "default": SamplePlan(),
        "seed7-n4097": SamplePlan(seed=7, angles_2d=4097, fibonacci_3d=4097,
                                  random_nd=4097),
        "seed3-n1": SamplePlan(seed=3, angles_2d=1, fibonacci_3d=1,
                               random_nd=1),
    }.items()
}


FALSIFY_PLANS = {
    "small": SamplePlan(seed=2027, angles_2d=1000, fibonacci_3d=5000,
                        random_nd=5000),
    "default": SamplePlan(),
}


def falsify_cases():
    """name -> (matrix as a list of rows, plan name)."""
    rng = np.random.default_rng(2027)
    cases = {}
    kappas = {"k4.5": 4.5, "k6.5": 6.5, "k40": 40.0}
    for r in OFFSETS:
        kappas[f"nec-{r:.0e}"] = KAPPA_NECESSARY * (1.0 - r)
        kappas[f"nec+{r:.0e}"] = KAPPA_NECESSARY * (1.0 + r)
    for n in range(2, 9):
        for k, (tag, kappa) in enumerate(kappas.items()):
            scale = SCALES[(n + k) % len(SCALES)]
            cases[f"d{n}-{tag}-rot-s{scale:.0e}"] = (
                _matrix(rng, _geometric(n, kappa), scale, True), "small")
        for tag in ("k4.5", "k6.5", "nec-1e-12", "nec+1e-12"):
            kappa = kappas[tag]
            # two-point spectrum: every eigenvalue tied to an end
            w = [1.0] * (n // 2) + [kappa] * (n - n // 2)
            cases[f"d{n}-{tag}-tied-rot"] = (_matrix(rng, w, 1.0, True),
                                             "small")
        w = _geometric(n, kappas["nec+1e-09"])
        if n > 2:  # both ends tied, so the extreme pair is not unique
            w[1], w[-2] = w[0], w[-1]
        cases[f"d{n}-nec+1e-09-ends-tied-diag"] = (
            _matrix(rng, w[::-1], 1.0, False), "small")
    for n in (3, 4, 8):
        for tag in ("k6.5", "nec+1e-06", "nec-1e-06"):
            cases[f"d{n}-{tag}-rot-default"] = (
                _matrix(rng, _geometric(n, kappas[tag]), 1.0, True),
                "default")
    return cases


def _gap_deltas(n, kappa):
    """delta_ij = w_i/w_j + w_j/w_i for a geometric spectrum, i < j, in
    Python floats, as ``--delta`` text."""
    w = _geometric(n, kappa)
    return ",".join(repr(w[i] / w[j] + w[j] / w[i])
                    for i in range(n) for j in range(i + 1, n))


LMI_SMALL = ["--seed", "2027", "--samples-2d", "1000", "--samples-3d",
             "5000", "--samples-nd", "5000"]


def lmi_cases():
    """name -> lmi argv before ``--format json``."""
    cases = {}

    def add(name, n, delta, plan=LMI_SMALL):
        cases[name] = ["lmi", "--dim", str(n), "--delta", delta, *plan]

    add("d3-pass-default", 3, "2.5,3.0,2.8", [])
    add("d3-violate-default", 3, "6.5,2,2", [])
    add("d3-violate", 3, "6.5,2,2")
    for n in range(2, 9):
        npairs = n * (n - 1) // 2
        add(f"d{n}-pass-gap", n, _gap_deltas(n, 5.5))
        add(f"d{n}-violate-nec+1e-09", n,
            _gap_deltas(n, KAPPA_NECESSARY * (1.0 + 1e-9)))
        add(f"d{n}-violate-7", n, ",".join(["7"] * npairs))
        add(f"d{n}-tied-2", n, ",".join(["2"] * npairs))
        add(f"d{n}-tied-4", n, ",".join(["4"] * npairs))
        add(f"d{n}-overflow-all", n, ",".join(["1e308"] * npairs))
        add(f"d{n}-overflow-one", n,
            ",".join(["1e308"] + ["2.5"] * (npairs - 1)))
    return cases


def eig_cases():
    """name -> matrix as a list of rows: 704 symmetric matrices."""
    rng = np.random.default_rng(1992)
    cases = {}
    kinds = ("spd-rot", "indef-rot", "diag", "tied-rot", "near-rot",
             "gauss", "sparse")
    for i in range(704):
        n = 1 + i % 8
        kind = kinds[(i // 8) % len(kinds)]
        scale = SCALES[(i // 56) % len(SCALES)]
        if kind == "gauss":
            g = rng.standard_normal((n, n)).tolist()
            a = [[scale * (g[r][c] + g[c][r]) for c in range(n)]
                 for r in range(n)]
        elif kind == "sparse":
            a = [[0.0] * n for _ in range(n)]
            for r in range(n):
                a[r][r] = scale * float(rng.uniform(-2.0, 5.0))
            if n > 1:
                p, q = sorted(int(x) for x in rng.choice(n, 2, replace=False))
                a[p][q] = a[q][p] = scale * float(rng.standard_normal())
        else:
            w = (1.0 + 9.0 * rng.random(n)).tolist()
            if kind == "indef-rot":
                w = [x * float(rng.choice([-1.0, 1.0])) for x in w]
            elif kind == "tied-rot":
                w = [w[0]] * (n // 2) + [w[-1]] * (n - n // 2)
            elif kind == "near-rot" and n > 1:
                w[1] = w[0] * (1.0 + float(rng.choice([1e-9, 1e-13, 1e-16])))
            a = _matrix(rng, w, scale, kind != "diag")
        cases[f"{i:03d}-d{n}-{kind}-s{scale:.0e}"] = a
    return cases


# --- fingerprints ------------------------------------------------------------

def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def analyze_fingerprint(path) -> str:
    code, out = _run(["analyze", str(path), "--format", "json"])
    return _sha(code, out)


def boundary_fingerprint(flags) -> str:
    code, out = _run(["boundary", *flags, "--format", "csv"])
    # wall_ms is the last column, and the only one that is not determined
    # by the input
    rows = [line.rsplit(",", 1)[0] for line in out.splitlines()]
    return _sha(code, "\n".join(rows))


def eig_fingerprint(a) -> str:
    spec = eig_sym(np.array(a, dtype=float))
    return _sha(spec.eigenvalues.tobytes(), spec.rotation.tobytes())


def samples_fingerprint(dim, plan) -> str:
    return _sha(all_samples(dim, plan).tobytes())


def falsify_fingerprint(a, plan) -> str:
    w = falsify(validate_spd(np.array(a, dtype=float)), FALSIFY_PLANS[plan])
    if w is None:
        return _sha(b"none")
    return _sha(np.array(w.point).tobytes(),
                np.float64(w.lambda_min).tobytes())


def lmi_fingerprint(argv) -> str:
    return _sha(*_run([*argv, "--format", "json"]))


@functools.cache
def _golden_file() -> dict:
    return json.loads(GOLDEN.read_text())


def _golden(section):
    return _golden_file()[section]


# --- tests -------------------------------------------------------------------

ANALYZE = analyze_cases()
EIG = eig_cases()
FALSIFY = falsify_cases()
LMI = lmi_cases()


def test_corpus_matches_golden_case_names():
    golden = _golden_file()
    assert sorted(golden["analyze"]) == sorted(ANALYZE)
    assert sorted(golden["boundary"]) == sorted(BOUNDARY_CASES)
    assert sorted(golden["eig_sym"]) == sorted(EIG)
    assert sorted(golden["samples"]) == sorted(SAMPLE_CASES)
    assert sorted(golden["falsify"]) == sorted(FALSIFY)
    assert sorted(golden["lmi"]) == sorted(LMI)


@pytest.mark.parametrize("name", sorted(ANALYZE))
def test_analyze_json_golden(name, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(ANALYZE[name])
    assert analyze_fingerprint(path) == _golden("analyze")[name]


@pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
def test_boundary_csv_golden(name):
    assert (boundary_fingerprint(BOUNDARY_CASES[name])
            == _golden("boundary")[name])


@pytest.mark.parametrize("dim", range(1, 9))
def test_eig_sym_bytes_golden(dim):
    golden = _golden("eig_sym")
    names = [k for k in EIG if f"-d{dim}-" in k]
    assert len(names) == 88
    wrong = [k for k in names if eig_fingerprint(EIG[k]) != golden[k]]
    assert wrong == []


@pytest.mark.parametrize("name", sorted(SAMPLE_CASES))
def test_sample_design_bytes_golden(name):
    assert (samples_fingerprint(*SAMPLE_CASES[name])
            == _golden("samples")[name])


@pytest.mark.parametrize("name", sorted(FALSIFY))
def test_falsify_witness_bytes_golden(name):
    assert falsify_fingerprint(*FALSIFY[name]) == _golden("falsify")[name]


@pytest.mark.parametrize("name", sorted(LMI))
def test_lmi_json_golden(name):
    assert lmi_fingerprint(LMI[name]) == _golden("lmi")[name]


def write_golden(tmp) -> dict:
    """Fingerprint every case; ``tmp`` is a directory for matrix files."""
    analyze = {}
    for name, text in ANALYZE.items():
        path = Path(tmp) / "m.txt"
        path.write_text(text)
        analyze[name] = analyze_fingerprint(path)
    return {
        "analyze": analyze,
        "boundary": {k: boundary_fingerprint(v)
                     for k, v in BOUNDARY_CASES.items()},
        "eig_sym": {k: eig_fingerprint(a) for k, a in EIG.items()},
        "samples": {k: samples_fingerprint(*v)
                    for k, v in SAMPLE_CASES.items()},
        "falsify": {k: falsify_fingerprint(*v) for k, v in FALSIFY.items()},
        "lmi": {k: lmi_fingerprint(v) for k, v in LMI.items()},
    }


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = write_golden(tmp)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, data.values()))} fingerprints to {GOLDEN}",
          file=sys.stderr)
