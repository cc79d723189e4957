"""Population file loading and atomic output writing.

Two input forms are accepted:

- CSV with header ``index,x[,p][,q]``, in any column order; any other
  column name, and a repeated one, is refused.  Each row holds exactly
  the header's fields.  Indices are 1-based and must cover 1..N exactly
  once (any row order).  ``p`` omitted means uniform nominal
  probabilities; ``q`` is the optional true distribution for simulation.
- JSON: an array of objects ``{"x": ..., "p": ..., "q": ...}`` (``p`` and
  ``q`` optional; any other key, and a key repeated within an object, is
  refused).  Position in the array fixes the index; an explicit
  ``"index"`` key, if present, must equal position + 1.

Files are read as UTF-8; a leading byte-order mark is skipped, and any
other byte sequence that is not UTF-8 is an ``InputFormatError`` naming
its line.

Outputs are written to a temporary file in the destination directory and
renamed into place, so a failed run never leaves a partial file.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import INDEX_MAX, Distribution, Population


class InputFormatError(ValueError):
    """A data file does not match the documented format."""


def _not_utf8(path: Path) -> InputFormatError:
    # Text decoding runs ahead of the parser in chunks, so the offset in the
    # caught error says nothing about the line; decode the bytes once more.
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return InputFormatError(f"{path}:{line}: not UTF-8 text: byte {data[exc.start]:#04x}")
    return InputFormatError(f"{path}: not UTF-8 text")


@dataclass(frozen=True)
class LoadedPopulation:
    population: Population
    nominal: Distribution
    true_dist: Distribution | None


def _finite_float(text, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputFormatError(f"{where}: not a number: {text!r}") from None
    if not np.isfinite(value):
        raise InputFormatError(f"{where}: not finite: {text!r}")
    return value


def _json_number(value, where: str) -> float:
    # Only JSON numbers: a string such as "7" or "1_0" is text, and true is a
    # bool, an int subclass that float() would load as 1.0.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(f"{where}: not a number: {value!r}")
    try:
        return _finite_float(value, where)
    except OverflowError:
        # float() cannot hold a JSON integer literal this large
        raise InputFormatError(f"{where}: not finite: int beyond the float range") from None


# One data row: (index, x, p or None, q or None).
_Row = tuple[int, float, float | None, float | None]
# The column names of a CSV header and the keys of a JSON record.
_FIELDS = ("index", "x", "p", "q")


def _refuse_unknown(names, where: str, what: str) -> None:
    # A misspelled name would otherwise drop its data: "P" read as no p column.
    seen = set()
    for name in names:
        if name not in _FIELDS:
            raise InputFormatError(
                f"{where}: unknown {what} {name!r}; expected {', '.join(_FIELDS)}"
            )
        if name in seen:  # the row lookups would keep only its last value
            raise InputFormatError(f"{where}: repeated {what} {name!r}")
        seen.add(name)


def _assemble(rows: list[_Row], source: str) -> LoadedPopulation:
    n = len(rows)
    if n == 0:
        raise InputFormatError(f"{source}: no data rows")
    seen = [False] * n
    have_p = rows[0][2] is not None
    have_q = rows[0][3] is not None
    x = np.empty(n)
    p = np.empty(n) if have_p else None
    q = np.empty(n) if have_q else None
    for idx, xv, pv, qv in rows:
        if idx < 1 or idx > n:
            raise InputFormatError(f"{source}: index {idx} outside 1..{n}")
        if seen[idx - 1]:
            raise InputFormatError(f"{source}: duplicate index {idx}")
        seen[idx - 1] = True
        if (pv is not None) != have_p or (qv is not None) != have_q:
            raise InputFormatError(f"{source}: ragged p/q columns at index {idx}")
        x[idx - 1] = xv
        if have_p:
            p[idx - 1] = pv
        if have_q:
            q[idx - 1] = qv
    # Full 1..N coverage is implied: n rows, no duplicates, all in range.
    try:
        nominal = Distribution(p) if have_p else Distribution.uniform(n)
        true_dist = Distribution(q) if have_q else None
    except ValueError as exc:
        raise InputFormatError(f"{source}: {exc}") from None
    return LoadedPopulation(Population(x), nominal, true_dist)


def _load_csv(path: Path) -> LoadedPopulation:
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        try:
            rows = _csv_rows(path, reader)
        except csv.Error as exc:  # for example a field above the csv module's size limit
            # DictReader updates its own line_num only after a row is read
            raise InputFormatError(f"{path}:{reader.reader.line_num}: {exc}") from None
    return _assemble(rows, str(path))


def _csv_rows(path: Path, reader: csv.DictReader) -> list[_Row]:
    if reader.fieldnames is None:
        raise InputFormatError(f"{path}: empty file")
    # Row lookups use these names too, so a header "index, x" works.
    reader.fieldnames = names = [name.strip() for name in reader.fieldnames]
    _refuse_unknown(names, str(path), "column")
    if "index" not in names or "x" not in names:
        raise InputFormatError(f"{path}: header must contain index,x")
    rows = []
    for row in reader:
        where = f"{path}:{reader.line_num}"  # blank lines are skipped but counted
        if None in row.values():  # DictReader's filler for the fields a short row lacks
            raise InputFormatError(f"{where}: fewer fields than the {len(names)} in the header")
        if None in row:  # DictReader's key for the extra fields of a long row
            raise InputFormatError(f"{where}: more fields than the {len(names)} in the header")
        try:
            idx = int(row["index"])
        except ValueError:
            raise InputFormatError(f"{where}: bad index {row.get('index')!r}") from None
        xv = _finite_float(row["x"], where)
        pv = _finite_float(row["p"], where) if "p" in names else None
        qv = _finite_float(row["q"], where) if "q" in names else None
        rows.append((idx, xv, pv, qv))
    return rows


def _json_index(value, where: str) -> int:
    # JSON numbers arrive as int or float; bool is an int subclass but not an index.
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputFormatError(f"{where}: index must be an integer, not {value!r}")


def _load_json(path: Path) -> LoadedPopulation:
    def unique_keys(pairs: list) -> dict:
        # json.load would keep only the last value of a repeated key
        record = {}
        for name, value in pairs:
            if name in record:
                raise InputFormatError(f"{path}: repeated key {name!r}")
            record[name] = value
        return record

    with open(path, encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise InputFormatError(f"{path}: expected a JSON array of objects")
    rows = []
    for pos, item in enumerate(data):
        where = f"{path}[{pos}]"
        if isinstance(item, dict):
            _refuse_unknown(item, where, "key")
        if not isinstance(item, dict) or "x" not in item:
            raise InputFormatError(f"{where}: expected an object with an 'x' key")
        idx = pos + 1
        if "index" in item:
            if _json_index(item["index"], where) != idx:
                raise InputFormatError(
                    f"{where}: explicit index {item['index']} != position {idx}"
                )
        xv = _json_number(item["x"], where)
        pv = _json_number(item["p"], where) if "p" in item else None
        qv = _json_number(item["q"], where) if "q" in item else None
        rows.append((idx, xv, pv, qv))
    return _assemble(rows, str(path))


def load_population(path) -> LoadedPopulation:
    """Load a population file; the format is chosen by file extension."""
    path = Path(path)
    if not path.exists():
        raise InputFormatError(f"{path}: no such file")
    try:
        if path.suffix.lower() == ".json":
            return _load_json(path)
        return _load_csv(path)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def load_sample_indices(path) -> np.ndarray:
    """Read pre-drawn 1-based sample indices, one integer per line."""
    path = Path(path)
    if not path.exists():
        raise InputFormatError(f"{path}: no such file")
    values = []
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for line_no, line in enumerate(handle, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    idx = int(text)
                except ValueError:
                    raise InputFormatError(f"{path}:{line_no}: bad index {text!r}") from None
                if idx < 1:
                    raise InputFormatError(f"{path}:{line_no}: indices are 1-based")
                if idx > INDEX_MAX:
                    raise InputFormatError(
                        f"{path}:{line_no}: index {text} beyond the int64 range"
                    )
                values.append(idx)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not values:
        raise InputFormatError(f"{path}: no sample indices")
    return np.asarray(values, dtype=np.int64)


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename."""
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
