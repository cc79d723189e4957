import json
import os
import re

import numpy as np
import pytest

from noisysum.io import (
    InputFormatError,
    atomic_write_text,
    load_population,
    load_sample_indices,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestCsvLoading:
    def test_full_columns(self, tmp_path):
        path = write(tmp_path, "pop.csv",
                     "index,x,p,q\n2,0.0,0.5,0.25\n1,1.0,0.5,0.75\n")
        loaded = load_population(path)
        assert np.array_equal(loaded.population.values, [1.0, 0.0])
        assert np.array_equal(loaded.nominal.probs, [0.5, 0.5])
        assert np.array_equal(loaded.true_dist.probs, [0.75, 0.25])

    def test_uniform_default_when_p_missing(self, tmp_path):
        path = write(tmp_path, "pop.csv", "index,x\n1,3.0\n2,4.0\n3,5.0\n4,6.0\n")
        loaded = load_population(path)
        assert np.allclose(loaded.nominal.probs, 0.25)
        assert loaded.true_dist is None

    def test_p_less_file_is_exactly_one_over_n_at_every_index(self, tmp_path):
        # 1/7 is inexact, and the rows come out of order; the uniform
        # nominal is held as one value, which every index reads.
        rows = "".join(f"{i},{i}.5,{q!r}\n" for i, q in
                       zip((3, 1, 7, 2, 5, 4, 6), (0.1, 0.2, 0.1, 0.1, 0.2, 0.2, 0.1)))
        loaded = load_population(write(tmp_path, "pop.csv", "index,x,q\n" + rows))
        assert loaded.nominal.probs.tolist() == [1.0 / 7] * 7
        assert loaded.true_dist.probs.tolist() == [0.2, 0.1, 0.1, 0.2, 0.2, 0.1, 0.1]

    def test_duplicate_index(self, tmp_path):
        path = write(tmp_path, "pop.csv", "index,x\n1,1.0\n1,2.0\n")
        with pytest.raises(InputFormatError, match=re.escape(f"{path}: duplicate index 1")):
            load_population(path)

    def test_index_out_of_range(self, tmp_path):
        path = write(tmp_path, "pop.csv", "index,x\n1,1.0\n3,2.0\n")
        with pytest.raises(InputFormatError, match="outside"):
            load_population(path)

    def test_bad_number(self, tmp_path):
        path = write(tmp_path, "pop.csv", "index,x\n1,abc\n")
        with pytest.raises(InputFormatError, match="not a number"):
            load_population(path)

    def test_non_finite_value(self, tmp_path):
        path = write(tmp_path, "pop.csv", "index,x\n1,inf\n2,0.0\n")
        with pytest.raises(InputFormatError, match="not finite"):
            load_population(path)

    def test_missing_header_columns(self, tmp_path):
        path = write(tmp_path, "pop.csv", "idx,value\n1,1.0\n")
        with pytest.raises(InputFormatError, match=re.escape(
            f"{path}: unknown column 'idx'; expected index, x, p, q"
        )):
            load_population(path)

    def test_header_without_index(self, tmp_path):
        # only known names, so the header check itself refuses it
        path = write(tmp_path, "pop.csv", "x,p\n1.0,1.0\n")
        with pytest.raises(InputFormatError,
                           match=re.escape(f"{path}: header must contain index,x")):
            load_population(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "pop.csv", "")
        with pytest.raises(InputFormatError):
            load_population(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "pop.csv", "index,x\n")
        with pytest.raises(InputFormatError, match="no data rows"):
            load_population(path)

    def test_unnormalized_p_column(self, tmp_path):
        path = write(tmp_path, "pop.csv", "index,x,p\n1,1.0,0.9\n2,0.0,0.9\n")
        with pytest.raises(InputFormatError):
            load_population(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError, match="no such file"):
            load_population(tmp_path / "absent.csv")

    def test_non_integer_index(self, tmp_path):
        path = write(tmp_path, "pop.csv", "index,x\n1,1.0\n1.5,2.0\n")
        with pytest.raises(InputFormatError, match="bad index '1.5'"):
            load_population(path)

    def test_spaced_header_loads_identically(self, tmp_path):
        # the header check stripped the names but the row lookups did not
        plain = load_population(write(tmp_path, "a.csv",
                                      "index,x,p,q\n2,0.0,0.5,0.25\n1,1.0,0.5,0.75\n"))
        spaced = load_population(write(tmp_path, "b.csv",
                                       "index, x, p , q\n2, 0.0, 0.5, 0.25\n1, 1.0, 0.5, 0.75\n"))
        for got, want in ((spaced.population.values, plain.population.values),
                          (spaced.nominal.probs, plain.nominal.probs),
                          (spaced.true_dist.probs, plain.true_dist.probs)):
            assert got.tobytes() == want.tobytes()


class TestCsvLineNumbers:
    def test_blank_line_is_counted(self, tmp_path):
        # rows were counted instead of lines, which named line 2
        path = write(tmp_path, "pop.csv", "index,x\n\n1,abc\n")
        with pytest.raises(InputFormatError, match=re.escape(f"{path}:3: not a number")):
            load_population(path)

    def test_field_above_csv_limit_names_the_line(self, tmp_path):
        # csv.Error escaped the loader, and the CLI exited 1 with a traceback
        path = write(tmp_path, "pop.csv", "index,x\n1,1.0\n2," + "1" * 200_000 + "\n")
        with pytest.raises(InputFormatError,
                           match=re.escape(f"{path}:3: field larger than field limit")):
            load_population(path)

    @pytest.mark.parametrize("text", ["index,x\n1\n", "index,x,p\n1,2.0,1.0\n2,1.0\n"])
    def test_short_row_is_named(self, tmp_path, text):
        # said "not a number: None", the filler csv.DictReader puts in missing fields
        path = write(tmp_path, "short.csv", text)
        line = text.count("\n")
        header = len(text.split("\n")[0].split(","))
        with pytest.raises(InputFormatError, match=re.escape(
            f"{path}:{line}: fewer fields than the {header} in the header"
        )):
            load_population(path)

    @pytest.mark.parametrize("text", ["index,x\n1,1.0\n2,1.0,9\n", "index,x,p\n1,2.0,1.0,\n"])
    def test_long_row_is_named(self, tmp_path, text):
        # loaded silently: csv.DictReader files the extra fields under the key None
        path = write(tmp_path, "long.csv", text)
        line = text.count("\n")
        header = len(text.split("\n")[0].split(","))
        with pytest.raises(InputFormatError, match=re.escape(
            f"{path}:{line}: more fields than the {header} in the header"
        )):
            load_population(path)


class TestUnknownNames:
    # A misspelled column or key was ignored, so its data was dropped: the
    # CSV "index,x,P" loaded with uniform p.
    @pytest.mark.parametrize("text, name", [
        ("index,x,P\n1,1.0,0.9\n2,0.0,0.1\n", "P"),
        ("index,x,p,y\n1,1.0,0.9,1\n2,0.0,0.1,2\n", "y"),
        ("index,x,\n1,1.0,\n", ""),
        ("index,X\n1,1.0\n", "X"),
    ])
    def test_csv_column_is_named(self, tmp_path, text, name):
        path = write(tmp_path, "pop.csv", text)
        with pytest.raises(InputFormatError, match=re.escape(
            f"{path}: unknown column {name!r}; expected index, x, p, q"
        )):
            load_population(path)

    @pytest.mark.parametrize("records, pos, name", [
        ([{"x": 1.0, "P": 0.9}, {"x": 0.0, "P": 0.1}], 0, "P"),
        ([{"x": 1.0, "p": 0.9}, {"x": 0.0, "p": 0.1, "weight": 2}], 1, "weight"),
        ([{"X": 1.0}], 0, "X"),
    ])
    def test_json_key_is_named(self, tmp_path, records, pos, name):
        path = write(tmp_path, "pop.json", json.dumps(records))
        with pytest.raises(InputFormatError, match=re.escape(
            f"{path}[{pos}]: unknown key {name!r}; expected index, x, p, q"
        )):
            load_population(path)

    @pytest.mark.parametrize("text, name", [
        ("index,x,x\n1,1.0,5.0\n2,0.0,7.0\n", "x"),
        ("index,x,p,index\n1,1.0,0.5,1\n2,0.0,0.5,2\n", "index"),
        ("index, x,x \n1,1.0,5.0\n", "x"),
    ])
    def test_repeated_csv_column_is_named(self, tmp_path, text, name):
        # DictReader kept the last of the repeated columns and dropped the others
        path = write(tmp_path, "pop.csv", text)
        with pytest.raises(InputFormatError, match=re.escape(f"{path}: repeated column {name!r}")):
            load_population(path)

    @pytest.mark.parametrize("text, name", [
        ('[{"x": 1.0, "x": 5.0}, {"x": 0.0}]', "x"),
        ('[{"x": 1.0, "p": 0.5}, {"x": 0.0, "p": 0.5, "p": 0.5}]', "p"),
    ])
    def test_repeated_json_key_is_named(self, tmp_path, text, name):
        # json.load kept the last of the repeated keys and dropped the others
        path = write(tmp_path, "pop.json", text)
        with pytest.raises(InputFormatError, match=re.escape(f"{path}: repeated key {name!r}")):
            load_population(path)

    def test_known_names_in_any_order_load(self, tmp_path):
        path = write(tmp_path, "pop.csv", "q,p,x,index\n0.5,0.5,0.0,2\n0.5,0.5,1.0,1\n")
        loaded = load_population(path)
        assert loaded.population.values.tolist() == [1.0, 0.0]
        assert loaded.nominal.probs.tolist() == [0.5, 0.5]


class TestJsonLoading:
    def test_array_of_objects(self, tmp_path):
        data = [{"x": 1.0, "p": 0.5, "q": 0.75}, {"x": 0.0, "p": 0.5, "q": 0.25}]
        path = write(tmp_path, "pop.json", json.dumps(data))
        loaded = load_population(path)
        assert np.array_equal(loaded.population.values, [1.0, 0.0])
        assert np.array_equal(loaded.true_dist.probs, [0.75, 0.25])

    def test_explicit_index_must_match_position(self, tmp_path):
        data = [{"index": 2, "x": 1.0}]
        path = write(tmp_path, "pop.json", json.dumps(data))
        with pytest.raises(InputFormatError, match="position"):
            load_population(path)

    def test_matching_explicit_index_accepted(self, tmp_path):
        data = [{"index": 1, "x": 1.0}, {"index": 2, "x": 2.0}]
        path = write(tmp_path, "pop.json", json.dumps(data))
        loaded = load_population(path)
        assert np.array_equal(loaded.population.values, [1.0, 2.0])

    def test_integral_float_index_accepted(self, tmp_path):
        data = [{"index": 1, "x": 1.0}, {"index": 2.0, "x": 2.0}]
        path = write(tmp_path, "pop.json", json.dumps(data))
        loaded = load_population(path)
        assert np.array_equal(loaded.population.values, [1.0, 2.0])

    @pytest.mark.parametrize("index", [1.7, True, "1", None])
    def test_non_integer_index_rejected(self, tmp_path, index):
        # int() would truncate 1.7 to the valid index 1
        data = [{"index": index, "x": 1.0}]
        path = write(tmp_path, "pop.json", json.dumps(data))
        with pytest.raises(InputFormatError, match="index must be an integer"):
            load_population(path)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("key", ["x", "p", "q"])
    def test_bool_value_rejected(self, tmp_path, key, value):
        # float(True) is 1.0, so a bool would otherwise load as a number
        row = {"x": 1.0, "p": 1.0, "q": 1.0}
        row[key] = value
        path = write(tmp_path, "pop.json", json.dumps([row]))
        with pytest.raises(InputFormatError, match=f"not a number: {value!r}"):
            load_population(path)

    @pytest.mark.parametrize("value", ["7", "1_0", "0.5", "inf", None, [1.0]])
    @pytest.mark.parametrize("key", ["x", "p", "q"])
    def test_non_number_value_rejected(self, tmp_path, key, value):
        # float("7") and float("1_0") would load text as the numbers 7 and 10
        row = {"x": 1.0, "p": 1.0, "q": 1.0}
        row[key] = value
        path = write(tmp_path, "pop.json", json.dumps([row]))
        with pytest.raises(InputFormatError, match=re.escape(f"not a number: {value!r}")):
            load_population(path)

    def test_int_beyond_float_range_rejected(self, tmp_path):
        # float() raises OverflowError on this JSON integer
        path = write(tmp_path, "pop.json", '[{"x": 1' + "0" * 400 + "}]")
        with pytest.raises(InputFormatError, match="not finite"):
            load_population(path)

    def test_int_values_still_load(self, tmp_path):
        # the bool check must not catch plain JSON integers
        path = write(tmp_path, "pop.json", json.dumps([{"x": 3, "p": 1, "q": 1}]))
        loaded = load_population(path)
        assert loaded.population.values.tolist() == [3.0]
        assert loaded.true_dist.probs.tolist() == [1.0]

    def test_rejects_non_array(self, tmp_path):
        path = write(tmp_path, "pop.json", json.dumps({"x": 1.0}))
        with pytest.raises(InputFormatError,
                           match=re.escape(f"{path}: expected a JSON array of objects")):
            load_population(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = write(tmp_path, "pop.json", "{not json")
        with pytest.raises(InputFormatError, match="invalid JSON"):
            load_population(path)

    def test_ragged_p_q_columns(self, tmp_path):
        path = write(tmp_path, "pop.json", json.dumps([{"x": 1, "p": 0.5}, {"x": 2}]))
        with pytest.raises(InputFormatError, match="ragged p/q columns at index 2"):
            load_population(path)

    def test_rejects_missing_x(self, tmp_path):
        path = write(tmp_path, "pop.json", json.dumps([{"p": 1.0}]))
        with pytest.raises(InputFormatError, match="'x'"):
            load_population(path)


class TestSampleIndices:
    def test_reads_one_per_line(self, tmp_path):
        path = write(tmp_path, "s.txt", "1\n2\n\n2\n1\n")
        assert np.array_equal(load_sample_indices(path), [1, 2, 2, 1])

    def test_rejects_zero(self, tmp_path):
        path = write(tmp_path, "s.txt", "1\n0\n")
        with pytest.raises(InputFormatError, match="1-based"):
            load_sample_indices(path)

    def test_rejects_garbage(self, tmp_path):
        path = write(tmp_path, "s.txt", "1\ntwo\n")
        with pytest.raises(InputFormatError, match="bad index"):
            load_sample_indices(path)

    def test_rejects_empty(self, tmp_path):
        path = write(tmp_path, "s.txt", "\n\n")
        with pytest.raises(InputFormatError, match="no sample"):
            load_sample_indices(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError, match="no such file"):
            load_sample_indices(tmp_path / "absent.txt")


class TestByteOrderMark:
    # Spreadsheet exports often start with a UTF-8 BOM; the CSV header check
    # read it as part of "index" and failed with "header must contain index,x".
    @pytest.mark.parametrize("name, text", [
        ("pop.csv", "index,x,p,q\n2,0.0,0.5,0.25\n1,1.0,0.5,0.75\n"),
        ("pop.json", json.dumps([{"x": 1.0, "p": 0.5, "q": 0.75},
                                 {"x": 0.0, "p": 0.5, "q": 0.25}])),
    ], ids=["csv", "json"])
    def test_population_loads_like_the_plain_file(self, tmp_path, name, text):
        plain = load_population(write(tmp_path, name, text))
        bom_path = tmp_path / ("bom-" + name)
        bom_path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        bom = load_population(bom_path)
        for got, want in ((bom.population.values, plain.population.values),
                          (bom.nominal.probs, plain.nominal.probs),
                          (bom.true_dist.probs, plain.true_dist.probs)):
            assert got.tobytes() == want.tobytes()

    def test_sample_indices(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"\xef\xbb\xbf1\n2\n2\n")
        assert load_sample_indices(path).tolist() == [1, 2, 2]


class TestHugeSampleIndex:
    def test_index_beyond_int64_names_the_line(self, tmp_path):
        # the int64 array conversion died with a bare OverflowError
        path = write(tmp_path, "big.txt", "1\n99999999999999999999999\n")
        with pytest.raises(InputFormatError, match=re.escape(f"{path}:2")):
            load_sample_indices(path)

    def test_largest_int64_index_loads(self, tmp_path):
        path = write(tmp_path, "edge.txt", f"{2**63 - 1}\n")
        assert load_sample_indices(path).tolist() == [2**63 - 1]


class TestNonUtf8:
    # A byte that is not UTF-8 escaped as a bare UnicodeDecodeError, whose
    # message named neither the file nor the line.
    @pytest.mark.parametrize("name, data", [
        ("pop.csv", b"index,x\n1,1.0\n2,\xff2.0\n"),
        ("pop.json", b'[{"x": 1.0},\n{"x": "2,\xff2.0"}]'),
    ], ids=["csv", "json"])
    def test_population_names_path_and_line(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(InputFormatError, match=re.escape(f"{path}:") + "[23]: not UTF-8"):
            load_population(path)

    def test_sample_indices_name_path_and_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"1\n2,\xff2.0\n")
        with pytest.raises(InputFormatError, match=re.escape(f"{path}:2: not UTF-8")):
            load_sample_indices(path)


class TestAtomicWrite:
    def test_writes_text(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_failed_replace_leaves_no_partial(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"

        def boom(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "x")
        assert not target.exists()
        # temp file cleaned up too
        assert list(tmp_path.iterdir()) == []
