"""The input boundary under generated, mutated files.

Population files (CSV and JSON) and sample files are written from a valid
population, then mutated: header names, spaces and byte-order marks, NaN
and inf spellings, empty and repeated rows, out-of-range indices, integers
beyond int64 or the float range, JSON bools, strings and nulls, and bytes
that are not UTF-8.  Every such file either loads or raises
InputFormatError, and ``estimate`` on it exits 0, 2 or 3, never 1 and never
with an exception.  An unmutated file loads back to the arrays it was
written from, a CSV row given one field more than its header is refused,
and so is a column or key renamed to a name the format does not know or
repeated.
"""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisysum.cli import main
from noisysum.io import InputFormatError, load_population, load_sample_indices

# Spellings a CSV cell or a sample line may hold instead of a number.
TEXT_TOKENS = [
    "nan", "NaN", "-nan", "inf", "-Infinity", "1e999", "-1e400", "1e-400", "-0.0",
    "", " ", " 2 ", "1_0", "0x10", "+1", "true", "abc", "0", "-1", "7",
    str(2**63 - 1), str(2**63), "1" + "0" * 400, "\x00", "٣",
]
# Values a JSON record may hold instead of a number or an index; each list
# or object is new, so that no record can come to hold itself.
JSON_TOKENS = st.one_of(st.sampled_from([
    float("nan"), float("inf"), float("-inf"), True, False, None, "7", "nan",
    0, -1, 7, 1.5, -0.0, 1e308, 2**63, 10**400,
]), st.builds(list), st.builds(dict))
NAMES = ["index", "x", "p", "q", " index", "x ", "X", "", "y", "index,x"]
BYTES = [b"\xff", b"\xc3\x28", b"\xef\xbb\xbf", b"\x00", b"\r", b"\n", b"\n\n", b'"', b","]
ANYWHERE = st.integers(0, 10**6)  # a row, column or byte position, taken modulo the size


@st.composite
def populations(draw):
    """(x, p, q) of a valid population with N <= 4; p or q may be None."""
    n = draw(st.integers(1, 4))
    x = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n))

    def probs():
        w = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), dtype=float)
        return (w / w.sum()).tolist()

    p = probs() if draw(st.booleans()) else None
    q = probs() if draw(st.booleans()) else None
    return x, p, q


def _csv_bytes(draw, x, p, q, mutate):
    columns = {"x": x, "p": p, "q": q}
    header = ["index"] + [c for c in ("x", "p", "q") if columns[c] is not None]
    order = draw(st.permutations(range(len(x))))
    rows = [[str(i + 1)] + [repr(columns[c][i]) for c in header[1:]] for i in order]
    for _ in range(draw(st.integers(0, 3)) if mutate else 0):
        kind = draw(st.sampled_from(["cell", "name", "blank", "repeat"]))
        r, c = draw(ANYWHERE) % len(rows), draw(ANYWHERE) % len(header)
        if kind == "cell" and c < len(rows[r]):
            rows[r][c] = draw(st.sampled_from(TEXT_TOKENS))
        elif kind == "name":
            header[c] = draw(st.sampled_from(NAMES))
        elif kind == "blank":
            rows.insert(r, [])
        else:
            rows.insert(r, list(rows[r]))
    return "\n".join(",".join(row) for row in [header, *rows]).encode() + b"\n"


def _json_bytes(draw, x, p, q, mutate):
    explicit = draw(st.booleans())
    records = []
    for i, xv in enumerate(x):
        record = {"index": i + 1} if explicit else {}
        record["x"] = xv
        for key, col in (("p", p), ("q", q)):
            if col is not None:
                record[key] = col[i]
        records.append(record)
    for _ in range(draw(st.integers(0, 3)) if mutate else 0):
        kind = draw(st.sampled_from(["value", "drop", "rename", "repeat", "record"]))
        r = draw(ANYWHERE) % len(records)
        record, key = records[r], draw(st.sampled_from(["index", "x", "p", "q"]))
        if kind == "record":
            records[r] = draw(JSON_TOKENS)
        elif kind == "repeat":
            records.insert(r, record)
        elif not isinstance(record, dict):
            continue
        elif kind == "value":
            record[key] = draw(JSON_TOKENS)
        elif kind == "drop":
            record.pop(key, None)
        elif key in record:
            record[draw(st.sampled_from(NAMES))] = record.pop(key)
    return json.dumps(records).encode()


def _sample_bytes(draw, n, mutate):
    lines = [str(i) for i in draw(st.lists(st.integers(1, n), min_size=1, max_size=6))]
    for _ in range(draw(st.integers(0, 2)) if mutate else 0):
        lines[draw(ANYWHERE) % len(lines)] = draw(st.sampled_from(TEXT_TOKENS))
    return "\n".join(lines).encode() + b"\n"


def _spoil(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(0, 2))):
        at = draw(ANYWHERE) % (len(data) + 1)
        data = data[:at] + draw(st.sampled_from(BYTES)) + data[at:]
    return data


@st.composite
def input_files(draw):
    """(suffix, population bytes, sample bytes, expected or None when mutated)."""
    x, p, q = draw(populations())
    mutate = draw(st.booleans())
    suffix = draw(st.sampled_from([".csv", ".json"]))
    render = _csv_bytes if suffix == ".csv" else _json_bytes
    pop = render(draw, x, p, q, mutate)
    samples = _sample_bytes(draw, len(x), mutate)
    if not mutate:
        return suffix, pop, samples, (x, p, q, [int(v) for v in samples.split()])
    return suffix, _spoil(draw, pop), _spoil(draw, samples), None


def _load(load, path):
    try:
        return load(path)
    except InputFormatError:
        return None


@given(populations(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_csv_row_with_an_extra_field_is_refused(population, data):
    # the loader checked only for short rows, so the extra field was dropped
    x, p, q = population
    lines = _csv_bytes(data.draw, x, p, q, mutate=False).decode().splitlines()
    line = 2 + data.draw(ANYWHERE) % (len(lines) - 1)  # 1-based, past the header
    extra = data.draw(st.sampled_from([t for t in TEXT_TOKENS if t != "\x00"]))
    lines[line - 1] += "," + extra
    with tempfile.TemporaryDirectory() as tmp:
        pop, samples = Path(tmp, "pop.csv"), Path(tmp, "s.txt")
        pop.write_bytes(("\n".join(lines) + "\n").encode())
        samples.write_bytes(b"1\n")
        with pytest.raises(InputFormatError, match=f":{line}: more fields than the"):
            load_population(pop)
        assert main(["estimate", "--input", str(pop), "--samples", str(samples), "--k", "1",
                     "--output", str(Path(tmp, "out.json"))]) == 2


UNKNOWN_NAMES = ["X", "P", "Q", "Index", "y", "weight", "", "p q", "x_1"]


@given(populations(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_renamed_column_or_key_is_refused(population, data):
    # an unknown name was ignored, so the renamed column's data was dropped
    x, p, q = population
    suffix = data.draw(st.sampled_from([".csv", ".json"]))
    name = data.draw(st.sampled_from(UNKNOWN_NAMES))
    if suffix == ".csv":
        lines = _csv_bytes(data.draw, x, p, q, mutate=False).decode().splitlines()
        header = lines[0].split(",")
        header[data.draw(ANYWHERE) % len(header)] = name
        lines[0] = ",".join(header)
        text, where, what = "\n".join(lines) + "\n", "", "column"
    else:
        records = json.loads(_json_bytes(data.draw, x, p, q, mutate=False))
        pos = data.draw(ANYWHERE) % len(records)
        key = data.draw(st.sampled_from(sorted(records[pos])))
        records[pos][name] = records[pos].pop(key)
        text, where, what = json.dumps(records), f"[{pos}]", "key"
    with tempfile.TemporaryDirectory() as tmp:
        pop, samples = Path(tmp, "pop" + suffix), Path(tmp, "s.txt")
        pop.write_text(text)
        samples.write_bytes(b"1\n")
        with pytest.raises(InputFormatError, match=re.escape(f"{where}: unknown {what} {name!r}")):
            load_population(pop)
        assert main(["estimate", "--input", str(pop), "--samples", str(samples), "--k", "1",
                     "--output", str(Path(tmp, "out.json"))]) == 2


@given(populations(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_repeated_column_or_key_is_refused(population, data):
    # the last of the repeated values was kept and the others were dropped
    x, p, q = population
    suffix = data.draw(st.sampled_from([".csv", ".json"]))
    if suffix == ".csv":
        lines = _csv_bytes(data.draw, x, p, q, mutate=False).decode().splitlines()
        header = lines[0].split(",")
        first, again = sorted(data.draw(st.lists(
            st.integers(0, len(header) - 1), min_size=2, max_size=2, unique=True)))
        name = header[again] = header[first]
        lines[0] = ",".join(header)
        text, what = "\n".join(lines) + "\n", "column"
    else:
        records = json.loads(_json_bytes(data.draw, x, p, q, mutate=False))
        pos = data.draw(ANYWHERE) % len(records)
        name = data.draw(st.sampled_from(sorted(records[pos])))
        objects = [json.dumps(record) for record in records]
        # json.dumps writes each key once, so the repeat is spliced into the text
        repeat = f", {json.dumps(name)}: {json.dumps(data.draw(JSON_TOKENS))}}}"
        objects[pos] = objects[pos][:-1] + repeat
        text, what = "[" + ", ".join(objects) + "]", "key"
    with tempfile.TemporaryDirectory() as tmp:
        pop, samples = Path(tmp, "pop" + suffix), Path(tmp, "s.txt")
        pop.write_text(text)
        samples.write_bytes(b"1\n")
        with pytest.raises(InputFormatError, match=re.escape(f"{pop}: repeated {what} {name!r}")):
            load_population(pop)
        assert main(["estimate", "--input", str(pop), "--samples", str(samples), "--k", "1",
                     "--output", str(Path(tmp, "out.json"))]) == 2


@given(input_files())
@settings(max_examples=300, deadline=None, derandomize=True)
# a CSV field above the csv module's 131072-character limit raised csv.Error (exit 1)
@example((".csv", b"index,x\n1," + b"1" * 200_000 + b"\n", b"1\n", None))
def test_files_load_or_are_rejected(case):
    suffix, pop_bytes, sample_bytes, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        pop, samples, out = Path(tmp, "pop" + suffix), Path(tmp, "s.txt"), Path(tmp, "out.json")
        pop.write_bytes(pop_bytes)
        samples.write_bytes(sample_bytes)
        loaded = _load(load_population, pop)
        indices = _load(load_sample_indices, samples)
        code = main(["estimate", "--input", str(pop), "--samples", str(samples), "--k", "1",
                     "--output", str(out)])
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)
    if expected is not None:
        x, p, q, drawn = expected
        n = len(x)
        assert code == 0
        assert loaded.population.values.tolist() == x
        assert loaded.nominal.probs.tolist() == (p if p is not None else [1.0 / n] * n)
        assert (loaded.true_dist is None) == (q is None)
        assert q is None or loaded.true_dist.probs.tolist() == q
        assert indices.tolist() == drawn
