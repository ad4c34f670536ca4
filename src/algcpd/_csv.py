"""The one CSV codec behind every table the CLI and bench write and read.

Tables have a one-line header and "\\n" line ends. `read_table` checks what it
reads: the header must start with the expected columns (case and spaces
ignored, extra columns allowed), blank rows are skipped, and a row that is too
short or that `convert` rejects raises ValueError naming the file and row.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from typing import IO, Callable, Iterable, List, Sequence, Union

Source = Union[str, IO[str]]


def _opened(f: Source, mode: str):
    """A path is opened here and closed on exit; an open text file is left open."""
    return open(f, mode, newline="") if isinstance(f, str) else nullcontext(f)


def write_table(target: Source, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _opened(target, "w") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def read_table(source: Source, header: Sequence[str], convert: Callable[[List[str]], object]) -> list:
    name = source if isinstance(source, str) else getattr(source, "name", "<stream>")
    with _opened(source, "r") as fh:
        rows = csv.reader(fh)
        got = next(rows, None)
        if got is None or [c.strip().lower() for c in got[:len(header)]] != list(header):
            raise ValueError(f"{name}: expected header '{','.join(header)}'")
        out = []
        for i, row in enumerate(rows, start=2):
            if not row:
                continue
            try:
                if len(row) < len(header):
                    raise ValueError
                out.append(convert(row))
            except ValueError:
                raise ValueError(f"{name}: bad row {i}: {row!r}") from None
        return out
