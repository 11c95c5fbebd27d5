"""The documents and the code agree: each proof in ``docs/proofs.md`` names
code that exists and tests that exist, every pointer to a proof names a
section that exists, and ``docs/formats.md`` lists the CLI's exit codes."""

import ast
import importlib
import pathlib
import re

import pytest

from kantorovich import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROOFS = ROOT / "docs" / "proofs.md"
FORMATS = ROOT / "docs" / "formats.md"
POINTER = re.compile(r"proofs\.md#([\w-]+)")


def _slug(heading):
    """The anchor Markdown renderers give a heading."""
    return re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")


def _sections():
    """{heading: body} for every ``## `` section of docs/proofs.md."""
    parts = re.split(r"^## (.+)$", PROOFS.read_text(encoding="utf-8"),
                     flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


SECTIONS = _sections()


def _line(body, label):
    found = re.findall(rf"^- {label}: (.+)$", body, flags=re.M)
    assert len(found) == 1, f"one '- {label}:' line"
    return re.findall(r"`([^`]+)`", found[0])


def test_proofs_has_the_sections():
    assert len(SECTIONS) >= 9


@pytest.mark.parametrize("heading", sorted(SECTIONS))
def test_section_names_code_that_exists(heading):
    names = _line(SECTIONS[heading], "Relied on by")
    assert names
    for name in names:
        module, _, attr = name.partition(".")
        obj = importlib.import_module(f"kantorovich.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)


@pytest.mark.parametrize("heading", sorted(SECTIONS))
def test_section_names_tests_that_exist(heading):
    cited = _line(SECTIONS[heading], "Checked by")
    assert cited
    for ref in cited:
        path, sep, name = ref.partition("::")
        assert sep and re.fullmatch(r"tests/test_\w+\.py", path), ref
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        tests = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("test_")}
        assert name in tests, ref


def _pointer_files():
    return [*sorted((ROOT / "src" / "kantorovich").glob("*.py")),
            *sorted((ROOT / "tests").glob("*.py")),
            ROOT / "README.md", FORMATS]


def test_every_pointer_names_a_section():
    anchors = {_slug(h) for h in SECTIONS}
    pointers = 0
    for path in _pointer_files():
        text = path.read_text(encoding="utf-8")
        found = POINTER.findall(text)
        for anchor in found:
            assert anchor in anchors, f"{path.name}: proofs.md#{anchor}"
        pointers += len(found)
        if path.parent.name == "kantorovich":
            # the code names the section it relies on, not just the file
            assert text.count("proofs.md") == len(found), path.name
    assert pointers >= len(SECTIONS)


def test_exit_code_table_is_the_cli_codes():
    text = FORMATS.read_text(encoding="utf-8")
    section = text.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    table = {int(code) for code in re.findall(r"^\| (\d+) +\|", section,
                                              flags=re.M)}
    codes = {getattr(cli, name) for name in dir(cli)
             if name.startswith("EXIT_")}
    assert table == codes
