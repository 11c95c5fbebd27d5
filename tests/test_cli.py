import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
import unicodedata
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_matrix
from kantorovich import cli, linalg, validate_spd
from kantorovich.classify import KAPPA_NECESSARY
from kantorovich.cli import (build_parser, parse_matrix_json,
                             parse_matrix_text, read_matrix_file, run)
from kantorovich.lmi import MAX_NODES

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args, timeout=120):
    return subprocess.run([sys.executable, "-m", "kantorovich", *args],
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def diag16(tmp_path):
    p = tmp_path / "diag16.txt"
    p.write_text("2\n1 0\n0 6\n")
    return str(p)


@pytest.fixture
def identity3(tmp_path):
    p = tmp_path / "eye3.txt"
    p.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
    return str(p)


@pytest.fixture
def gap3(tmp_path):
    p = tmp_path / "gap3.txt"
    p.write_text("3\n1 0 0\n0 2 0\n0 0 4.5\n")
    return str(p)


# --- matrix file formats -----------------------------------------------------

def test_plain_round_trip(tmp_path, rng):
    a = rng.standard_normal((4, 4))
    a = a + a.T
    path = str(tmp_path / "m.txt")
    write_matrix(path, a)
    np.testing.assert_array_equal(read_matrix_file(path), a)


def test_json_round_trip(tmp_path, rng):
    a = rng.standard_normal((3, 3))
    a = a + a.T
    path = str(tmp_path / "m.json")
    write_matrix(path, a, fmt="json")
    np.testing.assert_array_equal(read_matrix_file(path), a)
    obj = json.loads(open(path).read())
    assert obj["n"] == 3
    assert len(obj["entries"]) == 9


def test_json_detected_without_suffix(tmp_path):
    p = tmp_path / "m.dat"
    p.write_text('{"n": 2, "entries": [1, 0, 0, 6]}')
    np.testing.assert_array_equal(read_matrix_file(str(p)),
                                  np.diag([1.0, 6.0]))


def test_plain_parse_errors():
    with pytest.raises(ValueError):
        parse_matrix_text("")
    with pytest.raises(ValueError):
        parse_matrix_text("2\n1 0\n")  # missing row
    with pytest.raises(ValueError):
        parse_matrix_text("2\n1 0 0\n0 1\n")  # ragged row
    with pytest.raises(ValueError):
        parse_matrix_text("x\n1\n")
    with pytest.raises(ValueError):
        parse_matrix_text("2\n1 a\n0 1\n")


def test_json_parse_errors():
    with pytest.raises(ValueError):
        parse_matrix_json('{"entries": [1]}')
    with pytest.raises(ValueError):
        parse_matrix_json('{"n": 2, "entries": [1, 2, 3]}')


@pytest.mark.parametrize("text", [
    '{"n": [2], "entries": [1, 0, 0, 6]}',
    '{"n": null, "entries": [1, 0, 0, 6]}',
    '{"n": 1e400, "entries": [1, 0, 0, 6]}',
    '{"n": 2.5, "entries": [1, 0, 0, 6]}',
    '{"n": "2", "entries": [1, 0, 0, 6]}',
    '{"n": true, "entries": [1]}',
    '{"n": 0, "entries": []}',
    '{"n": 2, "entries": {"a": 1}}',
    '{"n": 2, "entries": [[1, 0], [0, 6]]}',
    '{"n": 2, "entries": [1, 0, 0, "6"]}',
    '{"n": 2, "entries": [1, 0, 0, true]}',
    '{"n": 1, "entries": [1' + '0' * 400 + ']}',
    '{"n": ' + '[' * 200_000 + ']' * 200_000 + ', "entries": []}',
], ids=["n-list", "n-null", "n-overflow", "n-float", "n-string", "n-bool",
        "n-zero", "entries-object", "entries-nested", "entries-string",
        "entries-bool", "entries-int-overflow", "nested-too-deep"])
def test_malformed_json_matrix_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert run(["analyze", str(path)]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("name, text", [
    ("m.txt", "2\n1 0\n0 6\n"),
    ("m.dat", '{"n": 2, "entries": [1, 0, 0, 6]}'),
], ids=["plain", "json"])
def test_leading_byte_order_mark_is_dropped(tmp_path, capsys, name, text):
    # One leading U+FEFF is dropped before the format is chosen: the file
    # reads as it does without the mark.  A second mark is an input error.
    (tmp_path / name).write_text(text, encoding="utf-8")
    want = run(["analyze", str(tmp_path / name)]), capsys.readouterr()
    (tmp_path / name).write_text("\ufeff" + text, encoding="utf-8")
    assert (tmp_path / name).read_bytes().startswith(b"\xef\xbb\xbf")
    got = run(["analyze", str(tmp_path / name)]), capsys.readouterr()
    assert got == want
    assert want[0] == 1 and want[1].out.startswith("dim: 2\n")
    (tmp_path / name).write_text("\ufeff\ufeff" + text, encoding="utf-8")
    assert run(["analyze", str(tmp_path / name)]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


SIX = [[1.0, 0.0], [0.0, 6.0]]


@pytest.mark.parametrize("name, text, rows, code", [
    ("m.txt", "2\n1_0 0\n0 6\n", [[10.0, 0.0], [0.0, 6.0]], 0),
    ("m.txt", "2\n\u0661 0\n0 \u0666\n", SIX, 1),
    ("m.txt", "\uff12\n1 0\n0 6\n", SIX, 1),
    ("m.txt", "2\n1\u00a00\n0\u00a06\n", SIX, 1),
    ("m.txt", "2\r1 0\r0 6\r", SIX, 1),
    ("m.txt", "2\u20281 0\u20280 6\n", SIX, 1),
    ("m.json", '{"n": 3, "entries": [1], "n": 2, "entries": [1, 0, 0, 6]}',
     SIX, 1),
], ids=["underscore", "arabic-indic-digits", "full-width-dimension", "nbsp",
        "cr", "line-separator", "json-repeated-keys"])
def test_matrix_file_grammar_as_documented(tmp_path, capsys, name, text,
                                           rows, code):
    # What the readers accept beyond the examples in docs/formats.md
    # (Matrix files): int() and float() tokens, str.split() whitespace,
    # str.splitlines() lines and the last of repeated JSON keys.
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    assert read_matrix_file(str(path)) == rows
    assert run(["analyze", str(path)]) == code
    assert capsys.readouterr().err == ""


# --- the matrix-file grammar, by generation ----------------------------------

# docs/formats.md#matrix-files written out, with none of the Python readers
# it names: the line ends of str.splitlines() (universal newlines make CR LF
# one), the whitespace of str.split(), and the int() and float() numerals,
# whose digits are any Unicode decimal digits (regex \d), with single
# underscores between digits.
_LINE_ENDS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BLANKS = (" \t\x1f\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
           "\u2007\u2008\u2009\u200a\u202f\u205f\u3000")
_SPACE = _LINE_ENDS + _BLANKS
_DIGITS = r"\d(?:_?\d)*"
_INT = re.compile(rf"[+-]?{_DIGITS}")
_FLOAT = re.compile(rf"[+-]?(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})"
                    rf"(?:[eE][+-]?{_DIGITS})?"
                    r"|[iI][nN][fF](?:[iI][nN][iI][tT][yY])?|[nN][aA][nN])")


def _ascii(token):
    """``token`` with its decimal digits in ASCII and no underscores."""
    return "".join(str(unicodedata.decimal(c, c)) for c in token if c != "_")


def _reference_text(text):
    """The rows of a plain-text matrix file, or None where it is
    malformed."""
    lines = [ln for ln in re.split(f"\r\n|[{re.escape(_LINE_ENDS)}]", text)
             if ln.strip(_SPACE)]
    rows = [re.split(f"[{re.escape(_SPACE)}]+", ln.strip(_SPACE))
            for ln in lines]
    if not rows or len(rows[0]) != 1 or not _INT.fullmatch(rows[0][0]):
        return None
    n = int(_ascii(rows[0][0]))
    if len(rows) - 1 != n or not all(
            len(row) == n and all(_FLOAT.fullmatch(t) for t in row)
            for row in rows[1:]):
        return None
    return [[float(_ascii(t)) for t in row] for row in rows[1:]]


def _reference_json(text):
    """The rows of a JSON matrix file, or None where it is malformed: an
    object as ``json.loads`` reads it, whose last "n" is an integer >= 1
    and whose last "entries" holds n * n numbers.  ``json.loads`` reads
    NaN, Infinity and -Infinity, and a float literal beyond the float
    range as inf; these rows are read, and only validate_spd rejects them.
    An integer literal beyond the float range has no float, and is
    rejected here."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        return None
    n, entries = obj["n"], obj["entries"]
    if (type(n) is not int or n < 1 or type(entries) is not list
            or len(entries) != n * n
            or not all(type(v) in (int, float) for v in entries)):
        return None
    try:
        values = [float(v) for v in entries]
    except OverflowError:
        return None
    return [values[i:i + n] for i in range(0, n * n, n)]


def _reference_rows(name, data):
    """What the documented grammar reads from file ``name`` holding the
    bytes ``data``: its rows, or None where it rejects the file."""
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError:
        return None
    if name.endswith(".json") or text.lstrip(_SPACE).startswith("{"):
        return _reference_json(text)
    return _reference_text(text)


# Digit scripts: ASCII, Arabic-Indic, extended Arabic-Indic, Devanagari,
# full-width and mathematical bold.
_SCRIPTS = [0x30, 0x30, 0x30, 0x660, 0x6f0, 0x966, 0xff10, 0x1d7ce]


@st.composite
def _digit_run(draw, digits):
    """ASCII ``digits`` in one script, some pairs joined by "_"."""
    base = draw(st.sampled_from(_SCRIPTS))
    joins = draw(st.integers(0, 2 ** len(digits))) if draw(
        st.integers(0, 3)) == 0 else 0
    return "".join(("_" if i and joins >> i & 1 else "") + chr(base + int(d))
                   for i, d in enumerate(digits))


@st.composite
def _numeral(draw, value, integer=False):
    """An int() (``integer``) or float() spelling of the integer
    ``value`` >= 0 in the documented grammar."""
    sign = draw(st.sampled_from(["", "", "+"] + ["-"] * (value == 0)))
    if integer:
        zeros = "0" * draw(st.integers(0, 1))
        return sign + draw(_digit_run(zeros + str(value)))
    shift = draw(st.integers(0, 3))
    digits = "0" * draw(st.integers(0, 1)) + str(value * 10 ** shift)
    point = draw(st.none() | st.integers(0, len(digits)))
    power = (len(digits) - point if point is not None else 0) - shift
    head, tail = digits[:point], digits[point:] if point is not None else ""
    text = sign + (draw(_digit_run(head)) if head else "")
    if point is not None:
        text += "." + (draw(_digit_run(tail)) if tail else "")
    if power or draw(st.integers(0, 3)) == 0:
        text += draw(st.sampled_from("eE")) + (
            "-" if power < 0 else draw(st.sampled_from(["", "+"]))) + draw(
            _digit_run("0" * draw(st.integers(0, 1)) + str(abs(power))))
    return text


# Values whose matrices kappa decides: no subset of them has its kappa in
# the gap of any dim, so no example scans.
_DIAGONAL = [1, 2, 25, 50]


@st.composite
def _plain_matrix(draw):
    n = draw(st.integers(1, 4))
    diag = draw(st.lists(st.sampled_from(_DIAGONAL), min_size=n, max_size=n))
    blanks = st.text(_BLANKS, max_size=2)
    ends = st.sampled_from(["\n", "\n", "\r\n", *_LINE_ENDS])
    lines = [draw(_numeral(n, integer=True))]
    for i in range(n):
        cells = [draw(_numeral(diag[i] if j == i else 0)) for j in range(n)]
        lines.append("".join(cell + draw(st.text(_BLANKS, min_size=1,
                                                  max_size=2))
                             for cell in cells[:-1]) + cells[-1])
    text = draw(st.sampled_from(["", "\ufeff"]))
    for line in lines:
        text += draw(st.sampled_from(["", "", draw(blanks) + draw(ends)]))
        text += draw(blanks) + line + draw(blanks) + draw(ends)
    return text if draw(st.booleans()) else text.rstrip(_LINE_ENDS)


def _json_numerals(value):
    """JSON spellings of the integer ``value`` >= 0."""
    return [str(value), f"{value}.0", f"{value}e0", f"{value}E+00",
            f"{value * 10}e-1", f"{value * 100}.00E-2",
            f"0.{value:03d}e3", *(["-0", "-0.0e5"] if value == 0 else [])]


# What json.loads reads as a non-finite float.
_JSON_NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]


@st.composite
def _json_matrix(draw):
    n = draw(st.integers(1, 4))
    diag = draw(st.lists(st.sampled_from(_DIAGONAL), min_size=n, max_size=n))
    ws = st.text(" \t\n\r", max_size=2)
    cells = [draw(st.sampled_from(_json_numerals(diag[i // n]
                                                 if i % (n + 1) == 0 else 0)
                                  if draw(st.integers(0, 63)) else
                                  _JSON_NON_FINITE))
             for i in range(n * n)]
    depth = draw(st.sampled_from([1] * 8 + [2, 100_000]))
    members = [
        ("n", draw(st.sampled_from([str(n)] * 24 + [
            f"{n}.0", f"{n}e0", "true", f'"{n}"', f"[{n}]", "null", "1e400",
            "-0", f"0{n}"]))),
        ("entries", "[" * depth + ",".join(draw(ws) + c + draw(ws)
                                           for c in cells) + "]" * depth)]
    members += draw(st.lists(st.sampled_from([
        ("n", str(n + 1)), ("entries", "[1]"), ("x", "null")]), max_size=1))
    members = draw(st.permutations(members))
    return draw(st.sampled_from(["", "\ufeff"])) + draw(ws) + "{" + ",".join(
        f'{draw(ws)}"{key}"{draw(ws)}:{draw(ws)}{value}{draw(ws)}'
        for key, value in members) + "}" + draw(ws)


# Near misses: characters and tokens beside the grammar.
_NEAR = ["\ufeff", "\u200b", "\u2212", "\xb2", "\u0131nf", "\x00", "_",
         "__", ".", "e", "+", "-", "x", ",", "0x1", "1e999", "-1e999",
         "1e-999", "nan", "-inf", "+Infinity", "NaN", "-Infinity", "1_",
         "\u0661", "\uff12", "\u2028", "\xa0", "\x85", "\r", "\x1f", "\u3000",
         "{", "}", "[", "]", '"', "true", "//", "'"]


@st.composite
def _matrix_file(draw):
    """(file name, bytes): a matrix file in the documented grammar, or a
    near miss of one."""
    as_json = draw(st.booleans())
    text = draw(_json_matrix() if as_json else _plain_matrix())
    name = draw(st.sampled_from(["m.json", "m.json", "m.txt"] if as_json
                                else ["m.txt", "m.txt", "m.dat", "m.json",
                                      "m.JSON"]))
    i = draw(st.integers(0, len(text)))
    near = draw(st.sampled_from(_NEAR))
    text = draw(st.sampled_from([text] * 4 + [
        text[:i] + near + text[i:], text[:i] + near + text[i + 1:],
        text[:i] + text[i + 1:], text[:i], text + near]))
    data = text.encode("utf-8")
    if draw(st.integers(0, 15)) == 0:  # not UTF-8
        data = data[:i] + draw(st.sampled_from([b"\xff", b"\xed\xa0\x80",
                                                b"\xc3"])) + data[i:]
    return name, data


def _bits(rows):
    return [[float.hex(v) if v == v else "nan" for v in row] for row in rows]


@pytest.fixture(scope="module")
def grammar_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("grammar")


def _check_grammar(grammar_dir, name, data):
    """A file is read exactly when the documented grammar reads it, as the
    same rows bit for bit; analyze accepts it exactly when those rows are
    an SPD matrix, and else exits 64 with one error line."""
    path = grammar_dir / name
    path.write_bytes(data)
    try:
        want = _reference_rows(name, data)
        if want is None:
            with pytest.raises(ValueError):
                read_matrix_file(str(path))
        else:
            assert _bits(read_matrix_file(str(path))) == _bits(want), data
        try:
            spd = want is not None and bool(validate_spd(want))
        except ValueError:
            spd = False
        code, out, err = _run_in_process(["analyze", str(path)])
    finally:
        path.unlink()
    assert (code != 64) == spd, (data, code, err)
    if code == 64:
        assert out == "" and err.count("error:") == 1, (data, err)
    else:
        assert code in (0, 1) and err == "", (data, err)
    return want


@settings(max_examples=400, deadline=None, derandomize=True)
@given(file=_matrix_file())
def test_matrix_file_grammar_by_generation(grammar_dir, file):
    _check_grammar(grammar_dir, *file)


@pytest.mark.parametrize("entry, rows", [
    ("1e999", [[math.inf]]), ("-1e999", [[-math.inf]]),
    ("NaN", [[math.nan]]), ("Infinity", [[math.inf]]),
    ("1" + "0" * 400, None),
], ids=["1e999", "-1e999", "NaN", "Infinity", "int-1e400"])
def test_matrix_file_grammar_non_finite_json(grammar_dir, entry, rows):
    # json.loads reads NaN, Infinity and float overflow, so the file is
    # read and analyze exits 64 on the non-finite entry; an integer beyond
    # the float range is rejected while reading.
    want = _check_grammar(grammar_dir, "m.json",
                          f'{{"n": 1, "entries": [{entry}]}}'.encode())
    if rows is None:
        assert want is None
    else:
        assert _bits(want) == _bits(rows)


# --- analyze -----------------------------------------------------------------

def test_analyze_not_convex(diag16):
    res = run_cli("analyze", diag16)
    assert res.returncode == 1
    assert "status: NotConvex" in res.stdout
    assert "certificate: necessary-violated" in res.stdout
    assert "5.82842712474619" in res.stdout


def test_analyze_convex(identity3):
    res = run_cli("analyze", identity3)
    assert res.returncode == 0
    assert "status: Convex" in res.stdout


def test_analyze_gap_matrix(gap3):
    res = run_cli("analyze", gap3, "--samples-3d", "20000")
    assert res.returncode == 2
    assert "status: Convex" not in res.stdout


def test_analyze_json_format(diag16):
    res = run_cli("analyze", diag16, "--format", "json")
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert out["status"] == "NotConvex"
    assert out["kappa"] == 6.0
    assert out["witness"] is not None
    assert out["thresholds"]["necessary"] == pytest.approx(5.82842712474619)


def _non_finite(o):
    """Whether a float in ``o``, at any depth, is inf or nan."""
    if isinstance(o, dict):
        o = list(o.values())
    if isinstance(o, list):
        return any(map(_non_finite, o))
    return isinstance(o, float) and not math.isfinite(o)


JSON_CORPUS = [
    {}, [], "", None, True, False, 0, -7, 10 ** 40, -(10 ** 40),
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
    1.7976931348623157e308, 0.1, 1e16, 1.5e-7,
    math.inf, -math.inf, math.nan, np.float64(-0.0), np.float64(math.inf),
    "caf\u00e9 \u2603 \U0001f600 \"q\" \\ \n\t\x00\x7f",
    [[], {}, [[]], [{}], {"a": []}, {"b": {}}],
    {"status": "Convex", "witness": None, "flags": [True, False],
     "nested": {"deep": [1, [2.5, [-math.inf, {"x": math.nan}]]]},
     "\u00fcber": [10 ** 25, -0.0, 5e-324]},
]


@pytest.mark.parametrize("obj", JSON_CORPUS, ids=repr)
def test_json_renderer_writes_json_dumps_bytes(obj):
    # A report writes each value that can be non-finite as a string
    # (cli._finite), so a bare inf or nan left in it is an error, never an
    # Infinity or NaN token.
    if _non_finite(obj):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json(obj)
    else:
        assert cli._json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [np.int64(3), [1.0, np.int64(3)],
                                 {"n": np.int64(3)}, object(),
                                 {"s": {1, 2}}])
def test_json_renderer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj)
    with pytest.raises(TypeError):
        cli._json(obj)


def test_analyze_reads_the_rotation_only_for_a_witness(monkeypatch, capsys,
                                                       diag16, gap3):
    # U is replayed and checked orthonormal on its first read: a failed
    # check there is a usage error, and a rung that reads no U never sees it
    jacobi = linalg._jacobi

    def scrambled(a):
        spec = jacobi(a)
        spec._order = [spec._order[0]] * len(spec._order)
        return spec

    monkeypatch.setattr(linalg, "_jacobi", scrambled)
    assert run(["analyze", diag16, "--format", "json"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err == "error: rotation is not orthonormal\n"
    assert run(["analyze", gap3, "--samples-3d", "2000"]) == 2
    assert capsys.readouterr().err == ""


def test_readme_analyze_demo(tmp_path):
    """README's ``analyze demo.txt`` session is reproduced byte for byte."""
    text = README.read_text(encoding="utf-8")
    m = re.search(r"\$ cat demo\.txt\n(.*?)\$ kantorovich analyze demo\.txt\n"
                  r"(.*?)\$ echo \$\?\n(\d+)\n", text, re.S)
    assert m, "README lost its analyze demo.txt block"
    matrix, stdout, code = m.groups()
    demo = tmp_path / "demo.txt"
    demo.write_text(matrix, encoding="utf-8")
    res = run_cli("analyze", str(demo))
    assert res.stdout == stdout
    assert res.returncode == int(code) == 1


def test_analyze_missing_file():
    res = run_cli("analyze", "/nonexistent/m.txt")
    assert res.returncode == 64
    assert "error" in res.stderr


def test_analyze_invalid_matrix(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2\n1 2\n2 1\n")  # indefinite
    res = run_cli("analyze", str(p))
    assert res.returncode == 64


def test_analyze_asymmetric_matrix(tmp_path):
    p = tmp_path / "asym.txt"
    p.write_text("2\n1 0.5\n0.2 1\n")
    res = run_cli("analyze", str(p))
    assert res.returncode == 64


def test_unknown_command_exits_64():
    res = run_cli("frobnicate")
    assert res.returncode == 64


def test_unknown_flag_exits_64(diag16):
    res = run_cli("analyze", diag16, "--no-such-flag")
    assert res.returncode == 64


# --- one parser per process --------------------------------------------------

@pytest.fixture
def fresh_parser(monkeypatch):
    """Drop the cached parser and count the builds of the next ones."""
    builds = []

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    return builds


def test_run_builds_the_parser_once(fresh_parser, diag16, identity3,
                                    capsys):
    assert run(["analyze", diag16]) == 1
    assert run(["analyze", identity3, "--format", "json"]) == 0
    assert run(["boundary", "--dims", "2", "--families", "two_point",
                "--tol", "1e-2", "--format", "csv"]) == 0
    with pytest.raises(SystemExit):
        run(["analyze", diag16, "--format", "yaml"])
    assert len(fresh_parser) == 1


def test_run_keeps_no_state_between_calls(fresh_parser, diag16, capsys):
    assert run(["analyze", diag16, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "NotConvex"
    # the next call gets the defaults again, not the last call's flags
    assert run(["analyze", diag16]) == 1
    out = capsys.readouterr().out
    assert out.startswith("dim: 2\n") and "status: NotConvex" in out
    assert run_cli("analyze", diag16).stdout == out


@pytest.mark.parametrize("bad", [
    ["analyze", "{m}", "--format", "yaml"],
    ["analyze", "{m}", "--no-such-flag"],
    ["frobnicate"],
], ids=["bad-choice", "unknown-flag", "unknown-command"])
def test_usage_error_after_a_successful_call_exits_64(fresh_parser, diag16,
                                                      capsys, bad):
    assert run(["analyze", diag16, "--format", "json"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([a.format(m=diag16) for a in bad])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: kantorovich")
    assert "error: " in err and "Traceback" not in err
    assert len(fresh_parser) == 1


# --- lemmas ------------------------------------------------------------------

def test_lemmas_coarse_pass(tmp_path):
    csv_path = str(tmp_path / "cells.csv")
    res = run_cli("lemmas", "--grid", "5", "--csv", csv_path)
    assert res.returncode == 0
    assert "overall: PASS" in res.stdout
    lines = open(csv_path).read().strip().split("\n")
    assert lines[0] == "grid_id,coords,min_value,tolerance,passed"
    assert len(lines) == 13  # 5 box + 3 robust + 4 detm
    assert all(line.endswith(",true") for line in lines[1:])


def test_lemmas_csv_deterministic(tmp_path):
    runs = []
    for k in range(2):
        p = str(tmp_path / f"r{k}.csv")
        res = run_cli("lemmas", "--grid", "4", "--csv", p)
        assert res.returncode == 0
        runs.append(open(p, "rb").read())
    assert runs[0] == runs[1]


def test_lemmas_fails_outside_box():
    res = run_cli("lemmas", "--grid", "5", "--omega-max", "6",
                  "--format", "csv")
    assert res.returncode == 1
    assert ",false" in res.stdout


def test_lemmas_grid_zero_exits_64():
    res = run_cli("lemmas", "--grid", "0")
    assert res.returncode == 64


@pytest.mark.parametrize("count", ["0", "-3", "1"])
def test_lemmas_alpha_grid_below_two_exits_64(count):
    res = run_cli("lemmas", "--box-grid", "3", "--omega-grid", "3",
                  "--ab-grid", "3", "--alpha-grid", count)
    assert res.returncode == 64
    assert "--alpha-grid needs at least 2 nodes" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("args", [
    ("analyze", "--samples-nd", "1000000000000"),
    ("analyze", "--samples-2d", "134217729"),
    ("boundary", "--dims", "3", "--samples-3d", "134217729"),
])
def test_samples_above_the_ceiling_exit_64(monkeypatch, capsys, gap3, args):
    # rejected by its flag before any design is scanned; 2^27 is the most
    monkeypatch.setattr("kantorovich.cli.classify",
                        lambda *a: pytest.fail("scanned a design"))
    monkeypatch.setattr("kantorovich.boundary.sweep",
                        lambda *a, **k: pytest.fail("swept"))
    cmd, *flags = args
    code = run([cmd, gap3, *flags] if cmd == "analyze" else args)
    out, err = capsys.readouterr()
    assert code == 64 and out == ""
    assert err == (f"error: {flags[-2]} allows at most 134217728 samples, "
                   f"got {flags[-1]}\n")


@pytest.mark.parametrize("flags", [("--grid", "1000000000"),
                                   ("--alpha-grid", "4097")])
def test_lemmas_grid_above_one_block_exits_64(monkeypatch, capsys, flags):
    # rejected by its flag before any node array is built
    monkeypatch.setattr("kantorovich.lmi.box_inequality_grid_check",
                        lambda *a: pytest.fail("built a grid"))
    code = run(["lemmas", *flags])
    out, err = capsys.readouterr()
    assert code == 64
    assert out == ""
    assert err.startswith(f"error: {flags[0]} ")
    assert "Traceback" not in err


def test_lemmas_csv_format_stdout():
    res = run_cli("lemmas", "--grid", "3", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout.startswith("grid_id,coords,min_value,tolerance,passed")


# The lemmas CSV contract, byte for byte: the worst cells and values that the
# floored scans (docs/proofs.md#concavity-floor) report on these grids.
LEMMAS_GOLDEN = {
    (): (0, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;4.0;4.0,0.0,1e-09,true
box_chi2,4.0;4.0;2.0,0.0,1e-09,true
box_chi3,4.0;4.0;2.0,0.0,1e-09,true
box_chi4,4.0;2.0;4.0,0.0,1e-09,true
box_psi,2.0;2.0;4.0,4.0,1e-09,true
robust_M,4.0;4.0;2.0;-0.25;-0.75,0.894668525631453,1e-09,true
robust_P,4.0;2.0;4.0;-0.25;-0.75,0.894668525631453,1e-09,true
robust_Q,2.0;4.0;4.0;-0.25;-0.75,0.894668525631453,1e-09,true
detm_d2,4.0;4.0;2.0;0.0;0.0,0.0,1e-09,true
detm_d4,4.0;2.0;4.0;-1.0;0.0,0.0,1e-09,true
detm_min_at_zero,2.0;2.0;2.0;-1.0;0.0,0.0,1e-09,true
detm_alpha0,2.0;2.0;2.0;0.0,3.0,1e-09,true
"""),
    ("--grid", "4"): (0, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;4.0;4.0,0.0,1e-09,true
box_chi2,4.0;4.0;2.0,0.0,1e-09,true
box_chi3,4.0;4.0;2.0,0.0,1e-09,true
box_chi4,4.0;2.0;4.0,0.0,1e-09,true
box_psi,2.0;2.0;4.0,4.0,1e-09,true
robust_M,4.0;4.0;2.0;-0.33333333333333337;-1.0,1.061041575745349,1e-09,true
robust_P,4.0;2.0;4.0;-0.33333333333333337;-1.0,1.061041575745349,1e-09,true
robust_Q,2.0;4.0;4.0;-0.33333333333333337;-1.0,1.061041575745349,1e-09,true
detm_d2,4.0;2.0;2.0;-0.33333333333333337;0.33333333333333326,16.740740740740737,1e-09,true
detm_d4,4.0;2.0;2.0;-0.33333333333333337;0.33333333333333326,351.9999999999999,1e-09,true
detm_min_at_zero,4.0;4.0;2.0;-0.33333333333333337;0.33333333333333326,0.39094650205761283,1e-09,true
detm_alpha0,2.0;2.0;2.0;0.33333333333333326,4.11522633744856,1e-09,true
"""),
    ("--grid", "9"): (0, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;4.0;4.0,0.0,1e-09,true
box_chi2,4.0;4.0;2.0,0.0,1e-09,true
box_chi3,4.0;4.0;2.0,0.0,1e-09,true
box_chi4,4.0;2.0;4.0,0.0,1e-09,true
box_psi,2.0;2.0;4.0,4.0,1e-09,true
robust_M,4.0;4.0;2.0;-0.25;-0.75,0.894668525631453,1e-09,true
robust_P,4.0;2.0;4.0;-0.25;-0.75,0.894668525631453,1e-09,true
robust_Q,2.0;4.0;4.0;-0.25;-0.75,0.894668525631453,1e-09,true
detm_d2,4.0;4.0;2.0;0.0;0.0,0.0,1e-09,true
detm_d4,4.0;2.0;4.0;-1.0;0.0,0.0,1e-09,true
detm_min_at_zero,2.0;2.0;2.0;-1.0;0.0,0.0,1e-09,true
detm_alpha0,2.0;2.0;2.0;0.0,3.0,1e-09,true
"""),
    ("--omega-max", "5.9", "--grid", "11"): (1, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;5.9;5.9,-55.48950000000001,1e-09,false
box_chi2,5.9;5.9;2.0,-55.48950000000001,1e-09,false
box_chi3,5.9;5.9;2.0,-55.48950000000001,1e-09,false
box_chi4,5.9;2.0;5.9,-55.48950000000001,1e-09,false
box_psi,2.0;2.0;5.9,-7.210000000000001,1e-09,false
robust_M,3.56;5.9;5.9;0.0;-1.0,0.049999999999998046,1e-09,true
robust_P,3.56;5.9;5.9;0.0;-1.0,0.049999999999998046,1e-09,true
robust_Q,5.9;3.56;5.9;0.0;-1.0,0.049999999999998046,1e-09,true
detm_d2,5.9;2.0;5.9;-1.0;-0.8,-246.43007999999998,1e-09,false
detm_d4,5.9;2.0;5.9;-1.0;0.0,-1997.622,1e-09,false
detm_min_at_zero,5.9;5.9;2.0;0.0;-1.0,-23.767125,1e-09,false
detm_alpha0,2.0;5.9;2.0;-1.0,1.1849999999999987,1e-09,true
"""),
    ("--omega-min=-3", "--omega-max", "4.5", "--grid", "7"): (1, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,-3.0;4.5;4.5,-32.0625,1e-09,false
box_chi2,4.5;4.5;-3.0,-32.0625,1e-09,false
box_chi3,4.5;4.5;-3.0,-32.0625,1e-09,false
box_chi4,4.5;-3.0;4.5,-32.0625,1e-09,false
box_psi,-3.0;4.5;4.5,-98.25,1e-09,false
robust_M,-3.0;-3.0;-3.0;-1.0;-1.0,-5.999999999999999,1e-09,false
robust_P,-3.0;-3.0;-3.0;-1.0;-1.0,-5.999999999999999,1e-09,false
robust_Q,-3.0;-3.0;-3.0;-1.0;-1.0,-5.999999999999999,1e-09,false
detm_d2,-3.0;4.5;4.5;-1.0;-1.0,-571.21875,1e-09,false
detm_d4,-3.0;4.5;4.5;0.0;-1.0,-3766.5,1e-09,false
detm_min_at_zero,-3.0;4.5;4.5;-1.0;-1.0,-240.890625,1e-09,false
detm_alpha0,-3.0;2.0;-3.0;-1.0,-36.0,1e-09,false
"""),
    ("--grid", "13"): (0, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;4.0;4.0,0.0,1e-09,true
box_chi2,4.0;4.0;2.0,0.0,1e-09,true
box_chi3,4.0;4.0;2.0,0.0,1e-09,true
box_chi4,4.0;2.0;4.0,0.0,1e-09,true
box_psi,2.0;2.0;4.0,4.0,1e-09,true
robust_M,4.0;4.0;2.0;-0.6666666666666667;-0.33333333333333337,0.8991946562058414,1e-09,true
robust_P,4.0;2.0;4.0;-0.6666666666666667;-0.33333333333333337,0.8991946562058414,1e-09,true
robust_Q,2.0;4.0;4.0;-0.6666666666666667;-0.33333333333333337,0.8991946562058414,1e-09,true
detm_d2,4.0;4.0;2.0;0.0;0.0,0.0,1e-09,true
detm_d4,4.0;2.0;4.0;-1.0;0.0,0.0,1e-09,true
detm_min_at_zero,2.0;2.0;2.0;-1.0;0.0,0.0,1e-09,true
detm_alpha0,2.0;2.0;2.0;0.0,3.0,1e-09,true
"""),
    ("--omega-max", "6", "--grid", "13"): (1, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;6.0;6.0,-60.0,1e-09,false
box_chi2,6.0;6.0;2.0,-60.0,1e-09,false
box_chi3,6.0;6.0;2.0,-60.0,1e-09,false
box_chi4,6.0;2.0;6.0,-60.0,1e-09,false
box_psi,2.0;2.0;6.0,-8.0,1e-09,false
robust_M,2.6666666666666665;6.0;6.0;0.0;-1.0,-8.881784197001252e-16,1e-09,true
robust_P,2.6666666666666665;6.0;6.0;0.0;-1.0,-8.881784197001252e-16,1e-09,true
robust_Q,6.0;2.6666666666666665;6.0;0.0;-1.0,-8.881784197001252e-16,1e-09,true
detm_d2,6.0;2.0;6.0;-1.0;0.8333333333333333,-287.37500000000006,1e-09,false
detm_d4,6.0;2.0;6.0;-1.0;0.0,-2160.0,1e-09,false
detm_min_at_zero,6.0;2.0;6.0;-1.0;-1.0,-27.0,1e-09,false
detm_alpha0,2.0;6.0;2.0;-1.0,0.0,1e-09,true
"""),
    ("--omega-max", "4.5"): (1, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;4.5;4.5,-9.5625,1e-09,false
box_chi2,4.5;4.5;2.0,-9.5625,1e-09,false
box_chi3,4.5;4.5;2.0,-9.5625,1e-09,false
box_chi4,4.5;2.0;4.5,-9.5625,1e-09,false
box_psi,2.0;2.0;4.5,1.75,1e-09,true
robust_M,4.5;4.5;2.0;-0.29999999999999993;-0.8,0.6951153738461011,1e-09,true
robust_P,4.5;2.0;4.5;-0.29999999999999993;-0.8,0.6951153738461011,1e-09,true
robust_Q,2.0;4.5;4.5;-0.29999999999999993;-0.8,0.6951153738461011,1e-09,true
detm_d2,4.5;4.5;2.0;0.0;0.0,-14.34375,1e-09,false
detm_d4,4.5;2.0;4.5;-1.0;0.0,-344.25,1e-09,false
detm_min_at_zero,4.5;4.5;2.0;0.0;-0.55,-1.15909161328125,1e-09,false
detm_alpha0,2.0;2.0;2.0;0.0,3.0,1e-09,true
"""),
    ("--omega-max", "5"): (1, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;5.0;5.0,-22.5,1e-09,false
box_chi2,5.0;5.0;2.0,-22.5,1e-09,false
box_chi3,5.0;5.0;2.0,-22.5,1e-09,false
box_chi4,5.0;2.0;5.0,-22.5,1e-09,false
box_psi,2.0;2.0;5.0,-1.0,1e-09,false
robust_M,5.0;5.0;2.0;-0.09999999999999998;-0.9,0.47708381261313426,1e-09,true
robust_P,5.0;2.0;5.0;-0.09999999999999998;-0.9,0.47708381261313426,1e-09,true
robust_Q,2.0;5.0;5.0;-0.09999999999999998;-0.9,0.47708381261313426,1e-09,true
detm_d2,5.0;5.0;2.0;0.0;0.0,-33.75,1e-09,false
detm_d4,5.0;2.0;5.0;-1.0;0.0,-810.0,1e-09,false
detm_min_at_zero,5.0;5.0;2.0;0.0;-0.75,-5.3096923828125,1e-09,false
detm_alpha0,2.0;2.0;2.0;0.0,3.0,1e-09,true
"""),
    ("--omega-max", "5.9"): (1, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;5.9;5.9,-55.48950000000001,1e-09,false
box_chi2,5.9;5.9;2.0,-55.48950000000001,1e-09,false
box_chi3,5.9;5.9;2.0,-55.48950000000001,1e-09,false
box_chi4,5.9;2.0;5.9,-55.48950000000001,1e-09,false
box_psi,2.0;2.0;5.9,-7.210000000000001,1e-09,false
robust_M,5.9;5.9;2.0;-0.6499999999999999;-0.75,0.04979218181486145,1e-09,true
robust_P,5.9;2.0;5.9;-0.6499999999999999;-0.75,0.04979218181486145,1e-09,true
robust_Q,2.0;5.9;5.9;-0.6499999999999999;-0.75,0.04979218181486145,1e-09,true
detm_d2,5.9;2.0;5.9;-1.0;-0.8,-246.43007999999998,1e-09,false
detm_d4,5.9;2.0;5.9;-1.0;0.0,-1997.622,1e-09,false
detm_min_at_zero,5.9;5.9;2.0;0.0;-1.0,-23.767125,1e-09,false
detm_alpha0,2.0;5.9;2.0;-0.95,1.1773841226562454,1e-09,true
"""),
    ("--omega-min", "2.5", "--omega-max", "4", "--omega-grid", "41",
     "--ab-grid", "81"): (0, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.5;4.0;4.0,2.0,1e-09,true
box_chi2,4.0;4.0;2.5,2.0,1e-09,true
box_chi3,4.0;4.0;2.5,2.0,1e-09,true
box_chi4,4.0;2.5;4.0,2.0,1e-09,true
box_psi,2.5;2.5;4.0,8.5,1e-09,true
robust_M,3.775;4.0;3.1;0.0;-0.8,0.8949414981938305,1e-09,true
robust_P,3.775;3.1;4.0;0.0;-0.8,0.8949414981938305,1e-09,true
robust_Q,3.1;3.775;4.0;0.0;-0.8,0.8949414981938305,1e-09,true
detm_d2,4.0;4.0;2.5;0.0;0.0,3.0,1e-09,true
detm_d4,4.0;2.5;4.0;0.0;0.0,36.0,1e-09,true
detm_min_at_zero,2.5;2.5;2.5;-1.0;0.0,0.0,1e-09,true
detm_alpha0,2.5;2.5;2.5;0.0,4.6875,1e-09,true
"""),
}


@pytest.mark.parametrize("flags", list(LEMMAS_GOLDEN), ids=lambda f: " ".join(f) or "defaults")
def test_lemmas_csv_golden(flags):
    code, text = LEMMAS_GOLDEN[flags]
    res = run_cli("lemmas", *flags, "--format", "csv")
    assert res.returncode == code
    assert res.stdout == text
    assert res.stderr == ""


@pytest.mark.parametrize("omega_max", ["1e155", "1e308"])
def test_lemmas_overflow_fails_without_traceback(omega_max):
    # huge nodes overflow to inf and NaN: every box and detm row names its
    # first NaN (or -inf) cell and fails, and numpy prints no warning.  The
    # entries of m stay finite, and LAPACK scales them: the robust rows read
    # lambda_min of m at omega (W, W, 2), alpha = beta = -1, which is
    # W (3 - sqrt(33)) / 4 to within rounding.
    res = run_cli("lemmas", "--omega-max", omega_max, "--grid", "3",
                  "--format", "csv")
    assert res.returncode == 1
    assert res.stderr == ""
    robust = {"1e155": "-6.861406616345074e+154",
              "1e308": "-6.861406616345074e+307"}[omega_max]
    for line in res.stdout.splitlines()[1:]:
        grid_id, coords, value, _, passed = line.split(",")
        assert coords and passed == "false", line
        if grid_id.startswith("robust_"):
            assert value == robust, line
        else:
            assert value in ("nan", "-inf"), line
    human = run_cli("lemmas", "--omega-max", omega_max, "--grid", "3")
    assert human.returncode == 1 and human.stderr == ""
    assert human.stdout.endswith("overall: FAIL\n")


def test_lemmas_infinite_span_exits_64():
    # each bound is finite but hi - lo overflows: linspace would make every
    # node NaN, so the range is rejected before any scan
    res = run_cli("lemmas", "--omega-min=-1e308", "--omega-max", "1e308",
                  "--grid", "3", "--format", "csv")
    assert res.returncode == 64
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and "span" in res.stderr
    assert "--omega-min" in res.stderr and "--omega-max" in res.stderr
    assert "Traceback" not in res.stderr


# --- boundary ----------------------------------------------------------------

def test_boundary_two_point_2d(tmp_path):
    csv_path = str(tmp_path / "sweep.csv")
    res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                  "--tol", "1e-2", "--samples-2d", "1024", "--csv", csv_path)
    assert res.returncode == 0
    lines = open(csv_path).read().strip().split("\n")
    assert lines[0] == "family,dim,kappa_lo,kappa_hi,tol,samples,seed,wall_ms"
    parts = lines[1].split(",")
    lo, hi = float(parts[2]), float(parts[3])
    assert lo <= 5.8284271247461903 <= hi


def test_boundary_deterministic_modulo_wall(tmp_path):
    outs = []
    for k in range(2):
        p = str(tmp_path / f"s{k}.csv")
        res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                      "--tol", "5e-2", "--samples-2d", "512", "--csv", p)
        assert res.returncode == 0
        rows = [line.split(",")[:-1]  # drop wall_ms
                for line in open(p).read().strip().split("\n")]
        outs.append(rows)
    assert outs[0] == outs[1]


def test_boundary_bad_family():
    res = run_cli("boundary", "--families", "nope", "--dims", "2")
    assert res.returncode == 64


def test_boundary_nan_tol_exits_64():
    res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                  "--tol", "nan", "--samples-2d", "256")
    assert res.returncode == 64


def test_boundary_tol_below_float_spacing_exits_64():
    # Bisection cannot narrow adjacent floats below 8.0 to 1e-300; it used
    # to loop forever.
    res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                  "--tol", "1e-300", "--samples-2d", "8", timeout=60)
    assert res.returncode == 64
    assert "float spacing" in res.stderr
    assert res.stdout == ""


def test_boundary_bracket_beyond_spd_exits_64():
    # kappa = 1e12 is not a valid SPD condition number; the bracket is a
    # usage error before any search, not a matrix error.
    res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                  "--tol", "1e-2", "--bracket-hi", "1e12")
    assert res.returncode == 64
    assert "bracket" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


def test_boundary_unsupported_dim_exits_64_before_any_search(monkeypatch,
                                                              capsys):
    # dim 9 is rejected while the families are built, so the dim-4 rows
    # before it are never searched.
    monkeypatch.setattr("kantorovich.boundary._witness_found",
                        lambda *a: pytest.fail("searched for a witness"))
    code = run(["boundary", "--dims", "4,9",
                "--families", "two_point,geometric,pinned_pair"])
    out, err = capsys.readouterr()
    assert code == 64
    assert out == ""
    assert err.startswith("error:") and "dim 9" in err
    assert "Traceback" not in err


def test_boundary_bad_bracket_exits_70():
    res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                  "--tol", "1e-2", "--samples-2d", "256",
                  "--bracket-lo", "1.0", "--bracket-hi", "2.0")
    assert res.returncode == 70


# The boundary flags: per flag, values that pass every check and edge
# values that pass argparse (for the bracket, ordered pairs of values
# around 1, 3 + 2*sqrt(2) and 1e12).  Each example takes one flag, or
# none, from its edges.
_K = KAPPA_NECESSARY
_TOP = 1e12
while linalg.PD_TOL * _TOP >= 1.0:
    _TOP = math.nextafter(_TOP, 0.0)
_EDGES = [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 8.0, _K,
          math.nextafter(_K, 0.0), math.nextafter(_K, 9.0), _K * (1 + 1e-8),
          _TOP, math.nextafter(_TOP, math.inf), 1e12, -1.0, math.nan,
          math.inf]
_FLAG_POOLS = {
    "tol": (["inf", "ulp", "1e-3"],
            ["0", "0.0", "-0.0", "nan", "5e-324", "-1e-3"]),
    "bracket": ([(1.0, 8.0)],
                [(lo, hi) for lo in _EDGES for hi in _EDGES if not lo > hi]),
    "dims": (["2", " 4 ,", "8"],
             ["", ",", "1", "9", "x", "2.5", "99999999999999999999",
              "2,3,4,5,6,7,8,2,3"]),
    "families": (["two_point", "pinned_pair,,geometric"],
                 ["", ",", "bogus", "two_point,bogus",
                  ",".join(["two_point", "geometric", "pinned_pair"] * 3)]),
    "seed": ([0, 2 ** 63 - 1, 2 ** 64], [-1]),
    "samples": ([1, 1 << 27], [0, (1 << 27) + 1]),
}


def _run_in_process(argv):
    """(exit code, stdout, stderr) of ``run(argv)``, argparse exits too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _draw_flags(data, pools):
    """A valid value per flag; one flag, or none, draws from its edges."""
    edge = data.draw(st.sampled_from([None, *pools]))
    return {key: data.draw(st.sampled_from(
                valid + edges if key == edge else valid))
            for key, (valid, edges) in pools.items()}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_boundary_flags_exit_cleanly(data):
    # Whatever passes argparse exits 0, 64 or 70 without a traceback: 64
    # with one error line and no output, 0 and 70 with the header and one
    # CSV row per family and dim, 70 where a row has no bracket.
    flag = _draw_flags(data, _FLAG_POOLS)
    lo, hi = flag.pop("bracket")
    if flag["tol"] == "ulp":
        flag["tol"] = repr(math.ulp(hi))
    samples = flag.pop("samples")
    argv = ["boundary", "--format", "csv", f"--bracket-lo={lo!r}",
            f"--bracket-hi={hi!r}",
            *[f"--{name}={value}" for name, value in flag.items()],
            *[f"--samples-{d}={samples}" for d in ("2d", "3d", "nd")]]
    code, out, err = _run_in_process(argv)
    assert code in (0, 64, 70), (argv, err)
    assert "Traceback" not in err
    if code == 64:
        assert out == "" and err.count("error:") == 1, (argv, err)
        return
    lines = out.splitlines()
    rows = [len([t for t in flag[name].split(",") if t.strip()])
            for name in ("dims", "families")]
    assert lines[0] == "family,dim,kappa_lo,kappa_hi,tol,samples,seed,wall_ms"
    assert len(lines) == 1 + rows[0] * rows[1], argv
    assert (code == 70) == any(",nan,nan," in x for x in lines[1:]), argv


# --- lmi ---------------------------------------------------------------------

def test_lmi_pass_boundary():
    res = run_cli("lmi", "--dim", "2", "--delta", "6", "--samples-2d", "4096")
    assert res.returncode == 0
    assert "passed: true" in res.stdout


def test_lmi_fail():
    res = run_cli("lmi", "--dim", "2", "--delta", "6.2",
                  "--samples-2d", "1024")
    assert res.returncode == 1
    assert "passed: false" in res.stdout


def test_lmi_json():
    res = run_cli("lmi", "--dim", "3", "--delta", "2.5,3.0,2.8",
                  "--samples-3d", "5000", "--format", "json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["report"]["passed"] is True


def test_lmi_wrong_count_exits_64():
    res = run_cli("lmi", "--dim", "3", "--delta", "2.5,3.0")
    assert res.returncode == 64


def test_lmi_below_two_exits_64():
    res = run_cli("lmi", "--dim", "2", "--delta", "1.5")
    assert res.returncode == 64


def test_lmi_dim_above_max_exits_64():
    res = run_cli("lmi", "--dim", "9", "--delta", ",".join(["2.5"] * 36),
                  "--samples-nd", "16")
    assert res.returncode == 64
    assert "--dim" in res.stderr


def test_lmi_malformed_exits_64():
    res = run_cli("lmi", "--dim", "2", "--delta", "abc")
    assert res.returncode == 64



@pytest.fixture
def gap4(tmp_path):
    p = tmp_path / "gap4.txt"
    write_matrix(str(p), np.diag([1.0, 1.5, 3.0, 5.0]))
    return str(p)


@pytest.mark.parametrize("argv", [
    ("analyze", "{diag16}"),
    ("analyze", "{gap4}", "--samples-nd", "16"),
    ("lmi", "--dim", "2", "--delta", "2.5"),
    ("boundary", "--dims", "2", "--families", "two_point"),
    ("hessian-check", "{diag16}"),
], ids=["analyze-dim2", "analyze-dim4", "lmi", "boundary", "hessian-check"])
def test_negative_seed_exits_64(diag16, gap4, argv):
    args = [a.format(diag16=diag16, gap4=gap4) for a in argv]
    res = run_cli(*args, "--seed", "-1")
    assert res.returncode == 64
    assert "seed must be >= 0" in res.stderr
    assert res.stdout == ""

# --- hessian-check / kantorovich-bound ----------------------------------------

def test_hessian_check(tmp_path, rng):
    a = rng.standard_normal((3, 3))
    spd = a @ a.T + 3.0 * np.eye(3)
    p = str(tmp_path / "h.txt")
    write_matrix(p, spd)
    res = run_cli("hessian-check", p)
    assert res.returncode == 0
    assert "ok: true" in res.stdout


@pytest.mark.parametrize("count", ["0", "-1"])
def test_hessian_check_no_points_exits_64(diag16, count):
    res = run_cli("hessian-check", diag16, "--points", count)
    assert res.returncode == 64
    assert "--points" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("flag,value", [
    ("--step", "0"), ("--step", "-1e-5"), ("--step", "nan"), ("--step", "inf"),
    ("--tol", "nan"), ("--tol", "0"), ("--tol", "-1e-6"),
], ids=["0", "-1e-5", "nan", "inf", "tol-nan", "tol-0", "tol-negative"])
def test_hessian_check_bad_step_exits_64(diag16, flag, value):
    # A --tol that no deviation can pass is a usage error, like --step.
    res = run_cli("hessian-check", diag16, f"{flag}={value}")
    assert res.returncode == 64
    assert res.stderr.startswith(f"error: {flag}")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_hessian_check_inf_tol_passes(diag16):
    # As for boundary --tol, inf is accepted: every finite deviation passes.
    res = run_cli("hessian-check", diag16, "--tol", "inf")
    assert res.returncode == 0
    assert res.stdout.splitlines()[3:] == ["tolerance: inf", "ok: true"]


def test_hessian_check_nan_deviation_fails(diag16):
    # x +- 1e300 overflows x'Ax, so every finite difference is NaN; the
    # check must not report the NaN away as a pass.  At 1e308 x +- h itself
    # overflows: still a NaN deviation, not a rejected point.
    for step in ("1e300", "1e308"):
        res = run_cli("hessian-check", diag16, "--step", step,
                      "--points", "3")
        assert res.returncode == 1, step
        assert "max relative deviation: nan" in res.stdout
        assert "ok: false" in res.stdout


def test_hessian_check_overflow_prints_no_warnings(diag16):
    # The overflow is reported as a NaN deviation on stdout; numpy's
    # RuntimeWarnings must not reach stderr.
    for step in ("1e300", "1e308"):
        res = run_cli("hessian-check", diag16, "--step", step)
        assert res.returncode == 1, step
        assert res.stderr == ""
        assert res.stdout.splitlines()[2:] == [
            "max relative deviation: nan", "tolerance: 1e-06", "ok: false"]


def test_hessian_check_near_the_subnormal_range(tmp_path):
    # x'A^-1x used to overflow here and inf * 0 gave a NaN deviation
    p = tmp_path / "subnormal.txt"
    p.write_text("2\n2e-308 0\n0 1.2e-307\n")
    res = run_cli("hessian-check", str(p))
    assert res.returncode == 0
    assert res.stderr == ""
    assert res.stdout.splitlines()[-1] == "ok: true"


def test_hessian_check_memory_does_not_grow_with_points(diag16, capsys):
    # Only the running worst deviation is kept, not one per point.
    assert cli.run(["hessian-check", diag16, "--points", "2"]) == 0
    tracemalloc.start()
    try:
        assert cli.run(["hessian-check", diag16, "--points", "3000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "points: 3000" in capsys.readouterr().out
    assert peak < 64 * 1024, peak


def test_kantorovich_bound_extremal(diag16):
    res = run_cli("kantorovich-bound", diag16, "--point", "1,1")
    assert res.returncode == 0
    assert "holds = true" in res.stdout
    assert "holds = false" in res.stdout  # the as-printed variant


def test_kantorovich_bound_json(diag16):
    res = run_cli("kantorovich-bound", diag16, "--point", "1,0",
                  "--format", "json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["classical"]["holds"] is True
    assert out["k_value"] == pytest.approx(1.0)


@pytest.mark.parametrize("point", ["1e-100,1e-100", "1e-200,1e-200",
                                   "1e200,1e200"])
def test_kantorovich_bound_independent_of_point_scale(diag16, point):
    # The bound is homogeneous of degree 4, so (1, 1) decides every
    # multiple of it, however far K(x) and rhs under- or overflow.
    res = run_cli("kantorovich-bound", diag16, "--point", point)
    assert res.returncode == 0 and res.stderr == ""
    assert "holds = true" in res.stdout
    assert "holds = false" in res.stdout  # the as-printed variant


def test_kantorovich_bound_huge_point_prints_no_warnings(diag16):
    # K(x) and rhs overflow to inf; the verdict comes from x / |x|.
    res = run_cli("kantorovich-bound", diag16, "--point", "1e200,1",
                  "--format", "json")
    assert res.returncode == 0 and res.stderr == ""
    out = json.loads(res.stdout)
    assert (out["k_value"] == out["classical"]["rhs"]
            == out["as_printed"]["rhs"] == "inf")
    assert out["classical"]["holds"] and out["as_printed"]["holds"]


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@pytest.mark.parametrize("argv", [
    ["kantorovich-bound", "MATRIX", "--point", "1e200,1"],
    ["kantorovich-bound", "MATRIX", "--point", "1,0"],
    ["analyze", "MATRIX"],
    ["lmi", "--dim", "2", "--delta", "6.2", "--samples-2d", "64"],
    ["analyze", "GAP3"],
    ["analyze", "EYE3"],
    ["lmi", "--dim", "3", "--delta", "2.5,3.0,2.8"],
    ["lmi", "--dim", "2", "--delta", "1e308"],
])
def test_json_output_is_rfc8259(diag16, gap3, identity3, argv):
    # Every report is the text json.dumps(..., indent=2) writes.  A
    # non-finite float is the string "inf", "-inf" or "nan", never a bare
    # Infinity or NaN token.
    paths = {"MATRIX": diag16, "GAP3": gap3, "EYE3": identity3}
    res = run_cli(*[paths.get(a, a) for a in argv], "--format", "json")
    report = json.loads(res.stdout, parse_constant=_reject_constant)
    assert res.stdout == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("scale", ["1e160", "1e-200", "9e307"])
def test_analyze_extreme_scale(tmp_path, scale):
    # kappa of [[1, .9], [.9, 1]] is 19; the Frobenius norm of the scaled
    # matrix overflows or underflows unless Jacobi rescales it.
    p = str(tmp_path / "scaled.txt")
    write_matrix(p, float(scale) * np.array([[1.0, 0.9], [0.9, 1.0]]))
    res = run_cli("analyze", p)
    assert res.returncode == 1 and res.stderr == ""
    assert "status: NotConvex" in res.stdout
    kappa = float(re.search(r"kappa: (\S+)", res.stdout).group(1))
    assert kappa == pytest.approx(19.0, rel=1e-12)


def test_analyze_lambda_max_beyond_float_range_exits_64(tmp_path):
    p = str(tmp_path / "huge.txt")
    write_matrix(p, np.array([[1e308, 9e307], [9e307, 1e308]]))
    res = run_cli("analyze", p)
    assert res.returncode == 64 and res.stdout == ""
    assert res.stderr.startswith("error: lambda_max")
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("text, code, err", [
    ("2\n1e308 9e307\n9e307 1e308\n", 64,
     "error: lambda_max is beyond the float range (above 1.797693e+308)\n"),
    ("2\n9e307 8.1e307\n8.1e307 9e307\n", 1, ""),
    ("1\n1e-308\n", 64,
     "error: lambda_min 1.000000e-308 is too small: the inverse overflows\n"),
    ("2\n1e-308 0\n0 6e-308\n", 64,
     "error: lambda_min 1.000000e-308 is too small: the inverse overflows\n"),
    ("1\n1.2e-308\n", 0, ""),
    ("2\n2e-308 0\n0 1.2e-307\n", 1, ""),
    ("0\n", 64, "error: expected a square matrix, got shape (0,)\n"),
], ids=["beyond", "top", "inverse-overflows-1d", "inverse-overflows-2d",
        "inverse-finite-1d", "inverse-finite-2d", "empty"])
def test_analyze_at_the_edges_of_the_float_range(tmp_path, text, code, err):
    # Each exit code with its one stderr line, in a fresh interpreter: no
    # RuntimeWarning and no traceback.
    p = tmp_path / "edge.txt"
    p.write_text(text)
    res = run_cli("analyze", str(p))
    assert (res.returncode, res.stderr) == (code, err)


def test_kantorovich_bound_zero_point_exits_64(diag16):
    res = run_cli("kantorovich-bound", diag16, "--point", "0,0")
    assert res.returncode == 64


# --- what each command loads -------------------------------------------------

# One matrix file per analyze rung and per kind of rejected input, with a
# line that its report must hold and its exit code.
DIAG8 = "8\n" + "".join(
    " ".join(str(1.0 + k / 4) if j == k else "0" for j in range(8)) + "\n"
    for k in range(8))
ANALYZE_FILES = {
    "exact-2d.txt": ("2\n1 0\n0 4\n", "certificate: exact-2d", 0),
    "sufficient-3d.txt": ("3\n1 0 0\n0 2 0\n0 0 3.5\n",
                          "certificate: sufficient-3d", 0),
    "sufficient-any-dim.txt": ("4\n1 0 0 0\n0 2 0 0\n0 0 2.5 0\n0 0 0 3\n",
                               "certificate: sufficient-any-dim", 0),
    "sufficient-dim1.txt": ("1\n5\n", "certificate: sufficient-any-dim", 0),
    "sufficient-dim8.txt": (DIAG8, "certificate: sufficient-any-dim", 0),
    "necessary-violated.txt": ("3\n1 0 0\n0 2 0\n0 0 7\n", "witness: ", 1),
    "gap.txt": ("3\n1 0 0\n0 2 0\n0 0 4.5\n",
                "certificate: sampling-exhausted", 2),
    "asymmetric.txt": ("2\n1 2\n0 1\n", "error: asymmetry", 64),
    "not-pd.txt": ("2\n1 0\n0 -1\n", "error: lambda_min", 64),
    "malformed.txt": ("2\n1 x\n0 1\n", "error: bad matrix row", 64),
    "malformed.json": ('{"n": 2, "entries": [1, 0', "error: Expecting", 64),
}
# The analyze input whose rung scans (the gap design).
SCANNED = ("gap.txt",)

# The modules that every start loads.  A command loads the submodule it
# runs besides, and a command or analyze rung that scans loads numpy with
# the scan's modules; no other analyze start loads numpy, not even one
# that reports a witness point (a tuple of floats).  `boundary` scans
# nothing and loads no numpy: a step reads only the extreme pair (1, kappa).
# The plan, a dataclass, loads only where a plan is read (the gap, JSON's
# seed, `lmi` and `boundary`), and json only where JSON is read or written:
# a human-format analyze that kappa decides loads neither, nor dataclasses
# or inspect.  The shipped design records load with the first scan (the gap
# and `lmi`), and so nowhere else.
BASE_MODULES = {"kantorovich", "kantorovich.cli", "kantorovich.classify",
                "kantorovich.linalg"}
PLAN_MODULES = {"kantorovich.plan", "dataclasses", "inspect"}
SCAN_MODULES = {"kantorovich.forms", "kantorovich.sampling",
                "kantorovich._records", "numpy", *PLAN_MODULES}
RECORDED = ("numpy", "dataclasses", "inspect", "json")

# The snapshot is taken before the script imports json itself.
LOADED_SCRIPT = """
import contextlib, io, sys
from kantorovich import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.run(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m for m in sys.modules if m in %r
                or m.partition(".")[0] == "kantorovich")
import json
print(json.dumps([code, loaded]))
""" % (RECORDED,)


def _analyze_modules(name, fmt):
    """What an analyze of ANALYZE_FILES[name] in ``fmt`` loads besides
    BASE_MODULES."""
    accepted = ANALYZE_FILES[name][2] != 64
    return ({"json"} if name.endswith(".json") else set()) | (
        SCAN_MODULES if name in SCANNED else set()) | (
        {"json", *PLAN_MODULES} if fmt and accepted else set())


@pytest.mark.parametrize("argv, code, extra", [
    (("analyze", "PLAIN"), 1, set()),
    (("analyze", "JSON", "--format", "json"), 1, {"json", *PLAN_MODULES}),
    (("lmi", "--dim", "3", "--delta", "2.5,3.0,2.8"), 0, SCAN_MODULES),
    (("--help",), 0, set()),
    (("lemmas", "--grid", "3"), 0,
     {"kantorovich.lmi", "kantorovich.forms", "numpy", "dataclasses",
      "inspect"}),
    (("boundary", "--dims", "2", "--families", "two_point", "--tol", "1e-2"),
     0, {"kantorovich.boundary", *PLAN_MODULES}),
    (("hessian-check", "PLAIN", "--points", "2"), 0,
     {"kantorovich.function", "numpy"}),
    (("kantorovich-bound", "PLAIN", "--point", "1,1"), 0,
     {"kantorovich.function", "numpy"}),
    *[(("analyze", name, *fmt), ANALYZE_FILES[name][2],
       _analyze_modules(name, fmt))
      for name in ANALYZE_FILES for fmt in ((), ("--format", "json"))],
], ids=["analyze", "analyze-json", "lmi", "help", "lemmas", "boundary",
        "hessian-check", "kantorovich-bound",
        *[f"analyze-{name}{fmt}" for name in ANALYZE_FILES
          for fmt in ("", "-json")]])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, code, extra):
    plain, as_json = str(tmp_path / "m.txt"), str(tmp_path / "m.json")
    write_matrix(plain, np.diag([1.0, 6.0]))
    write_matrix(as_json, np.diag([1.0, 6.0]), fmt="json")
    paths = {"PLAIN": plain, "JSON": as_json}
    for name in set(argv) & set(ANALYZE_FILES):
        paths[name] = str(tmp_path / name)
        Path(paths[name]).write_text(ANALYZE_FILES[name][0])
    argv = [paths.get(a, a) for a in argv]
    res = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, *argv],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    got_code, loaded = json.loads(res.stdout)
    assert got_code == code
    loaded = set(loaded)
    if "numpy" in loaded:
        # numpy may import inspect itself (numpy 2 does, in
        # numpy._core.overrides), so where it loads, inspect may too
        loaded.discard("inspect")
        extra = extra - {"inspect"}
    assert loaded == BASE_MODULES | extra


# --- the same result in a fresh process and in-process -----------------------

@pytest.mark.parametrize("name", ANALYZE_FILES)
def test_analyze_subprocess_matches_in_process(tmp_path, capsys, name):
    # A fresh `python -m kantorovich` loads only the analyze modules; this
    # process has loaded every submodule.
    import kantorovich.boundary, kantorovich.function, kantorovich.lmi  # noqa
    text, line, _ = ANALYZE_FILES[name]
    path = tmp_path / name
    path.write_text(text)
    res = run_cli("analyze", str(path))
    code = run(["analyze", str(path)])
    out, err = capsys.readouterr()
    assert (res.stdout, res.stderr, res.returncode) == (out, err, code)
    assert line in out + err


# --- analyze flags -----------------------------------------------------------

# The analyze flags: per flag, values that pass every check (None: the flag
# is not given) and edge values that pass argparse and fail a check.  2^27,
# the sample ceiling, is a valid count only for inputs whose rung does not
# scan: a gap scan of 2^27 rows is slow by design, not a failure, so it is
# not drawn for SCANNED inputs.
_SAMPLE_EDGES = [0, -1, (1 << 27) + 1, 10 ** 20]
_ANALYZE_POOLS = {
    "format": ([None, "human", "json"], []),
    "seed": ([None, 0, 2 ** 63 - 1, 2 ** 64], [-1]),
    **{f"samples-{d}": ([None, 1, 64], _SAMPLE_EDGES)
       for d in ("2d", "3d", "nd")},
    "refine-rounds": ([None, 0, 50], [-1]),
}
_STATUS_OF_EXIT = {0: "Convex", 1: "NotConvex", 2: "Undetermined"}


@pytest.fixture(scope="module")
def analyze_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("analyze")
    for name, (text, _, _) in ANALYZE_FILES.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in ANALYZE_FILES}


def _no_constant(name):
    raise ValueError(f"not RFC 8259 JSON: {name}")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_analyze_flags_exit_cleanly(analyze_paths, data):
    # Whatever passes argparse exits 0, 1, 2 or 64 without a traceback: 64,
    # exactly where the input or a flag is bad, with one error line and no
    # output, whatever the rung (a plan flag is checked even where kappa
    # decides); else the input's exit code with the status it stands for,
    # in RFC 8259 JSON where asked, and a witness of dim coordinates where
    # one is reported.
    name = data.draw(st.sampled_from(sorted(ANALYZE_FILES)))
    edge = data.draw(st.sampled_from([None, *_ANALYZE_POOLS]))
    flag = {}
    for key, (valid, edges) in _ANALYZE_POOLS.items():
        if key.startswith("samples-") and name not in SCANNED:
            valid = [*valid, 1 << 27]
        flag[key] = data.draw(st.sampled_from(
            valid + edges if key == edge else valid))
    argv = ["analyze", analyze_paths[name],
            *[f"--{key}={value}" for key, value in flag.items()
              if value is not None]]
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2, 64), (argv, err)
    assert "Traceback" not in err
    bad_flag = edge is not None and flag[edge] in _ANALYZE_POOLS[edge][1]
    assert (code == 64) == (bad_flag or ANALYZE_FILES[name][2] == 64), argv
    if code == 64:
        assert out == "" and err.count("error:") == 1, (argv, err)
        return
    assert code == ANALYZE_FILES[name][2], argv
    if flag["format"] == "json":
        obj = json.loads(out, parse_constant=_no_constant)
        status, dim = obj["status"], obj["dim"]
        witness = obj["witness"] and obj["witness"]["point"]
    else:
        fields = dict(line.split(": ", 1) for line in out.splitlines()
                      if ": " in line and not line.startswith(" "))
        status, dim = fields["status"], int(fields["dim"])
        witness = fields.get("witness") and fields["witness"].split(",")
    assert status == _STATUS_OF_EXIT[code], argv
    assert witness is None or len(witness) == dim, argv
    assert (witness is not None) == (name == "necessary-violated.txt")


# The plan flags at DEFAULT_PLAN's values.
DEFAULT_PLAN_FLAGS = ("--seed", "42", "--samples-2d", "4096",
                      "--samples-3d", "100000", "--samples-nd", "200000",
                      "--refine-rounds", "50")


@pytest.mark.parametrize("argv", [
    *[("analyze", name, *fmt)
      for name in ANALYZE_FILES for fmt in ((), ("--format", "json"))],
    ("lmi", "--dim", "3", "--delta", "2.5,3.0,2.8"),
    ("lmi", "--dim", "3", "--delta", "2.5,3.0,2.8", "--format", "json"),
    ("boundary", "--dims", "2,3", "--tol", "1e-2", "--format", "csv"),
], ids=[*[f"analyze-{name}{fmt}" for name in ANALYZE_FILES
          for fmt in ("", "-json")], "lmi", "lmi-json", "boundary"])
def test_default_plan_flags_given_change_nothing(analyze_paths, argv):
    # A command given no plan flag reads DEFAULT_PLAN: the same bytes and
    # exit code as with every plan flag at its default, bar the sweep's
    # wall_ms column (the last).
    def bytes_of(result):
        code, out, err = result
        if argv[0] == "boundary":
            out = re.sub(r",[^,\n]*$", "", out, flags=re.M)
        return code, out, err

    argv = [analyze_paths.get(a, a) for a in argv]
    given = _run_in_process([*argv, *DEFAULT_PLAN_FLAGS])
    assert bytes_of(given) == bytes_of(_run_in_process(argv))
    assert given[0] in (0, 1, 2, 64) and "Traceback" not in given[2]


# --- lmi and kantorovich-bound flags -----------------------------------------

def _draw_vector(data, valid, edge, size):
    """``size`` comma-separated entries of ``valid``; ``edge`` (if any)
    replaces one of them, or adds one where it is "count", or zeroes all
    where it is "zero"."""
    entries = data.draw(st.lists(st.sampled_from(valid), min_size=size,
                                 max_size=size))
    if edge == "count":
        entries.append(valid[0])
    elif edge == "zero":
        entries = ["0"] * size
    elif edge is not None:
        entries[data.draw(st.integers(0, size - 1))] = edge
    return ",".join(entries)


_VECTOR_EDGES = ["nan", "inf", "-inf", "-0.0", "5e-324", "1e308", "x", "",
                 "count"]
# lmi always scans, so no sample count is drawn at the 2^27 ceiling: a
# scan of 2^27 rows is slow by design, not a failure.
_LMI_POOLS = {
    "format": (["human", "json"], []),
    "seed": ([0, 2 ** 63 - 1, 2 ** 64], [-1]),
    **{f"samples-{d}": ([1, 64], _SAMPLE_EDGES) for d in ("2d", "3d", "nd")},
    "refine-rounds": ([0, 50], [-1]),
    "dim": ([2, 3, 8], [0, 1, 9, -1]),
    "delta": ([None], ["1.5", *_VECTOR_EDGES]),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_lmi_flags_exit_cleanly(data):
    # Whatever passes argparse exits 0, 1 or 64 without a traceback and
    # with nothing else on stderr: 64 with one error line and no output,
    # else 0 exactly where the scan passed, in RFC 8259 JSON where asked,
    # with a worst point of dim coordinates.
    flag = _draw_flags(data, _LMI_POOLS)
    dim = flag["dim"]
    size = dim * (dim - 1) // 2 if 2 <= dim <= linalg.MAX_DIM else 1
    flag["delta"] = _draw_vector(data, ["2", "2.5", "6", "6.2", "1e308"],
                                 flag["delta"], size)
    argv = ["lmi", *[f"--{key}={value}" for key, value in flag.items()]]
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 64), (argv, err)
    if code == 64:
        assert out == "" and err.count("error:") == 1, (argv, err)
        assert "Traceback" not in err
        return
    assert err == "", (argv, err)
    if flag["format"] == "json":
        report = json.loads(out, parse_constant=_no_constant)["report"]
        passed, point = report["passed"], report["worst_point"]
    else:
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        passed = {"true": True, "false": False}[fields["passed"]]
        point = fields["worst point"].split(",")
    assert passed == (code == 0), argv
    assert len(point) == dim, argv


# The kantorovich-bound inputs: the analyze files, and matrices at the
# edges of the float range (the CI console-script inputs).
_BOUND_FILES = {
    **{name: text for name, (text, _, _) in ANALYZE_FILES.items()},
    "scaled.txt": "2\n1e160 9e159\n9e159 1e160\n",
    "top.txt": "2\n9e+307 8.1e+307\n8.1e+307 9e+307\n",
    "beyond.txt": "2\n1e308 9e307\n9e307 1e308\n",
    "subnormal.txt": "2\n1e-308 0\n0 6e-308\n",
    "tiny.txt": "2\n2e-308 0\n0 1.2e-307\n",
}
_BOUND_POOLS = {
    "format": (["human", "json"], []),
    "point": ([None], ["zero", *_VECTOR_EDGES]),
}


@pytest.fixture(scope="module")
def bound_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("bound")
    for name, text in _BOUND_FILES.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in _BOUND_FILES}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_kantorovich_bound_flags_exit_cleanly(bound_paths, data):
    # Whatever passes argparse exits 0, 1 or 64 without a traceback and
    # with nothing else on stderr: 64 with one error line and no output,
    # else 0 exactly where the classical bound holds, in RFC 8259 JSON
    # where asked.
    name = data.draw(st.sampled_from(sorted(_BOUND_FILES)))
    flag = _draw_flags(data, _BOUND_POOLS)
    dim = int(re.search(r"\d+", _BOUND_FILES[name]).group())
    flag["point"] = _draw_vector(data, ["1", "-2.5", "3", "1e200", "1e-200"],
                                 flag["point"], dim)
    argv = ["kantorovich-bound", bound_paths[name],
            *[f"--{key}={value}" for key, value in flag.items()]]
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 64), (argv, err)
    if code == 64:
        assert out == "" and err.count("error:") == 1, (argv, err)
        assert "Traceback" not in err
        return
    assert err == "", (argv, err)
    if flag["format"] == "json":
        obj = json.loads(out, parse_constant=_no_constant)
        holds, point = obj["classical"]["holds"], obj["point"]
        assert len(point) == dim, argv
    else:
        holds = "holds = true" in out.splitlines()[1]
    assert holds == (code == 0), argv


# The lemmas flags.  A node count draws from {2, 3, 5}, and its edges are
# counts that fail validation: MAX_NODES itself is valid but slow by design
# (a box scan of MAX_NODES^3 cells), so no example draws it.
_NODE_EDGES = [0, 1, -1, MAX_NODES + 1, 10 ** 20]
_OMEGA_EDGES = ["nan", "inf", "-inf", "0.0", "-0.0", "5e-324", "1e308",
                "-1e308", "1.9", "4.01", "5.9"]
_LEMMAS_POOLS = {
    "format": (["human", "csv"], []),
    "grid": ([None, 2, 3, 5], _NODE_EDGES),
    **{f"{axis}-grid": ([2, 3, 5], _NODE_EDGES)
       for axis in ("box", "omega", "ab", "alpha")},
    "omega-min": (["2.0"], _OMEGA_EDGES),
    "omega-max": (["4.0"], _OMEGA_EDGES),
}


@pytest.fixture(scope="module")
def lemmas_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("lemmas")
    return {"file": root / "worst.csv", "dir": root}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_lemmas_flags_exit_cleanly(lemmas_paths, data):
    # Whatever passes argparse exits 0, 1 or 64 without a traceback and
    # with nothing else on stderr: 64 with one error line and no output
    # (always for a --csv directory), else 0 exactly where every row
    # passed, with the header and the 12 rows on stdout (csv) and in the
    # --csv file.
    flag = _draw_flags(data, _LEMMAS_POOLS)
    lemmas_paths["file"].unlink(missing_ok=True)
    csv = data.draw(st.sampled_from([None, "file", "dir"]))
    flag["csv"] = lemmas_paths.get(csv)
    argv = ["lemmas", *[f"--{key}={value}" for key, value in flag.items()
                        if value is not None]]
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 64), (argv, err)
    assert "Traceback" not in err
    if code == 64:
        assert out == "" and err.count("error:") == 1, (argv, err)
        return
    assert err == "" and csv != "dir", (argv, err)
    lines = out.splitlines()
    assert len(lines) == 13, argv
    if flag["format"] == "csv":
        assert lines[0] == "grid_id,coords,min_value,tolerance,passed"
        passed = all(x.endswith(",true") for x in lines[1:])
    else:
        passed = lines[-1] == "overall: PASS"
    assert passed == (code == 0), argv
    if flag["csv"] is not None:
        text = flag["csv"].read_text(encoding="utf-8")
        assert len(text.splitlines()) == 13, argv
        assert flag["format"] != "csv" or text == out, argv


# The hessian-check flags, over the kantorovich-bound inputs.  --points has
# no ceiling: a valid count is drawn from {1, 2, 64}, since each point costs
# two Hessians, and its edges are counts and text that fail validation.
_HESSIAN_EDGES = ["nan", "inf", "-inf", "0.0", "-0.0", "5e-324", "1e308",
                  "-1e308", "x"]
_HESSIAN_POOLS = {
    "points": ([1, 2, 64], [0, -1, "2.5", "x"]),
    "seed": ([0, 2 ** 63 - 1, 2 ** 64], [-1, "x"]),
    "step": (["1e-5", "1e-3"], ["1e300", *_HESSIAN_EDGES]),
    "tol": (["1e-6", "inf"], ["-1e-6", *_HESSIAN_EDGES]),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_hessian_check_flags_exit_cleanly(bound_paths, data):
    # Whatever passes argparse exits 0, 1 or 64 without a traceback and
    # with nothing else on stderr, and no warning (overflow is reported as
    # a NaN deviation): 64 with one error line and no output, else the five
    # report lines, ok exactly where the exit code is 0.
    name = data.draw(st.sampled_from(sorted(_BOUND_FILES)))
    flag = _draw_flags(data, _HESSIAN_POOLS)
    argv = ["hessian-check", bound_paths[name],
            *[f"--{key}={value}" for key, value in flag.items()]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run_in_process(argv)
    assert caught == [], (argv, [str(w.message) for w in caught])
    assert code in (0, 1, 64), (argv, err)
    if code == 64:
        assert out == "" and err.count("error:") == 1, (argv, err)
        assert "Traceback" not in err
        return
    assert err == "", (argv, err)
    dim = int(re.search(r"\d+", _BOUND_FILES[name]).group())
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert list(fields) == ["dim", "points", "max relative deviation",
                            "tolerance", "ok"], argv
    assert (fields["dim"], fields["points"]) == (str(dim), str(flag["points"]))
    assert fields["ok"] == ("true" if code == 0 else "false"), argv
