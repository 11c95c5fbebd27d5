"""Write ``src/kantorovich/_records.py``: the block records
(``sampling._record``) of the ``DEFAULT_PLAN`` designs at dims 2-8, each
computed in full, whatever table the package ships.

    PYTHONPATH=src python tools/make_records.py

Run it after a change to ``sampling._FLOOR_COEFS``, ``sampling._BLOCK``,
the defaults of ``SamplePlan``, ``forms.square_bound`` or the designs;
``tests/test_sampling.py`` fails until it is run.
"""

import sys
import types
from pathlib import Path

# An empty table, so that _record computes every record.
_empty = types.ModuleType("kantorovich._records")
_empty.RECORDS = {}
sys.modules["kantorovich._records"] = _empty

from kantorovich.sampling import (  # noqa: E402
    _BLOCK, DEFAULT_PLAN, _design_key, _record)

HEADER = '''"""Block records of the ``DEFAULT_PLAN`` sphere designs, dims 2-8.

Generated by ``tools/make_records.py``; do not edit.  Regenerate with

    PYTHONPATH=src python tools/make_records.py

``RECORDS`` maps ``(dim, count, seed, block)`` to what
``sampling._record`` computes for that design: per block, its floor
``(phi, s_lo, s_hi)``, one block per line, then per block the PCG64 state
at its start.  ``_record`` returns a record only where the live first
design block reproduces its floor (docs/proofs.md#design-block-floor).
"""

RECORDS = {
'''


def main() -> None:
    out = [HEADER]
    for dim in range(2, 9):
        key = _design_key(dim, DEFAULT_PLAN) + (_BLOCK,)
        floors, states = _record(*key)
        out.append(f"    {key!r}: ((\n")
        out += [f"        {tuple(map(float, f))!r},\n" for f in floors]
        out.append("    ), (\n")
        out += [f"        {s},\n" for s in states]
        out.append("    )),\n")
    out.append("}\n")
    root = Path(__file__).resolve().parents[1]
    (root / "src/kantorovich/_records.py").write_text("".join(out),
                                                      encoding="utf-8")


if __name__ == "__main__":
    main()
