"""Compare preset iteration tables with the golden copies in ``tests/golden``.

    python tests/compare_golden.py OUT_DIR

``OUT_DIR`` holds the outputs of the presets as ``mpet <command> --out
OUT_DIR/<preset>`` writes them, so ``OUT_DIR/<preset>/<table>.csv`` is
compared with ``tests/golden/<preset>/<table>.csv`` for every golden
table.  The comment line, the header, every row and the trailing comment
lines must match exactly, ``iterations`` and ``converged`` included.  The
one exception is a count moved by one at a cell whose residual sits on
MinRes's stopping threshold, listed in :data:`THRESHOLD_CELLS`: its count
moves by one between OpenBLAS kernels (README, "CLI").  Prints one line per difference and exits 1 if there is any.
"""

import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# per golden table, the cells (by their key columns) whose count may move by one
THRESHOLD_CELLS = {
    "sweep_mixed/sweep.csv": [{"variant": "schur_reduced", "ell": "2", "i": "2", "lambda": "1.0"}],
    "orderrobust/orderrobust.csv": [{"ell": "3", "n": "8"}],
}


def compare(golden, table, threshold=()):
    """The differences of the CSV file ``table`` from the golden file
    ``golden``, one message each; ``threshold`` lists the cells whose
    ``iterations`` may differ by one."""
    want, got = golden.read_text().splitlines(), table.read_text().splitlines()
    if len(want) != len(got):
        return [f"{table}: {len(got)} lines, golden {len(want)}"]
    problems, header = [], None
    for number, (a, b) in enumerate(zip(want, got), 1):
        if a == b:
            if header is None and not a.startswith("#"):
                header = a.split(",")
            continue
        if header is not None and not a.startswith("#") and not b.startswith("#"):
            row, golden_row = dict(zip(header, b.split(","))), dict(zip(header, a.split(",")))
            moved = {c for c in header if row.get(c) != golden_row[c]}
            if (moved == {"iterations"}
                    and abs(int(row["iterations"]) - int(golden_row["iterations"])) == 1
                    and any(all(golden_row[c] == v for c, v in cell.items()) for cell in threshold)):
                continue
        problems.append(f"{table}:{number}: {b!r}, golden {a!r}")
    return problems


def compare_all(out_dir):
    """The differences of every golden table from its copy under ``out_dir``."""
    problems = []
    for golden in sorted(GOLDEN.rglob("*.csv")):
        name = golden.relative_to(GOLDEN).as_posix()
        table = Path(out_dir) / name
        if not table.is_file():
            problems.append(f"{table}: missing")
            continue
        problems += compare(golden, table, THRESHOLD_CELLS.get(name, ()))
    return problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tests/compare_golden.py OUT_DIR", file=sys.stderr)
        return 2
    problems = compare_all(argv[0])
    for line in problems:
        print(line)
    if not problems:
        print(f"{len(list(GOLDEN.rglob('*.csv')))} tables match the golden ones")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
