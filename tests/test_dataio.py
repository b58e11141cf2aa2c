"""Dataset CSV format: round trips and positional error messages."""
import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sflr import dataio
from sflr.dataio import (DataError, read_curve, read_dataset, write_csv,
                         write_dataset)
from sflr.design import FunctionalDataset


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_well_formed_small_file(tmp_path):
    path = _write(tmp_path, "t,0.0,0.5,1.0\n1,1.0,2.0,3.0\n0,4.0,5.0,6.0\n")
    data = read_dataset(path)
    assert data.n_samples == 2 and data.n_points == 3
    np.testing.assert_array_equal(data.labels, [1, 0])
    np.testing.assert_array_equal(data.values[1], [4.0, 5.0, 6.0])


def test_comment_lines_skipped(tmp_path):
    path = _write(tmp_path, "# seed=5\nt,0.0,1.0\n# midway note\n1,2.0,3.0\n")
    data = read_dataset(path)
    assert data.n_samples == 1


def test_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(17)
    grid = np.sort(rng.random(9))
    grid[0], grid[-1] = 0.0, 1.0
    values = rng.standard_normal((5, 9)) * 1e3
    labels = rng.integers(0, 2, 5)
    data = FunctionalDataset(grid, values, labels)
    path = tmp_path / "rt.csv"
    write_dataset(path, data, comment="config echo")
    back = read_dataset(path)
    np.testing.assert_array_equal(back.grid, data.grid)
    np.testing.assert_array_equal(back.values, data.values)
    np.testing.assert_array_equal(back.labels, data.labels)
    assert path.read_text().startswith("# config echo")


def test_round_trip_unlabeled(tmp_path):
    data = FunctionalDataset([0.0, 1.0], np.array([[1.5, -2.5]]))
    path = tmp_path / "na.csv"
    write_dataset(path, data)
    back = read_dataset(path)
    assert back.labels is None
    np.testing.assert_array_equal(back.values, data.values)


def test_all_na_labels_allowed(tmp_path):
    path = _write(tmp_path, "t,0.0,1.0\nNA,1.0,2.0\nna,3.0,4.0\n")
    assert read_dataset(path).labels is None


def test_mixed_na_rejected_with_row(tmp_path):
    path = _write(tmp_path, "t,0.0,1.0\n1,1.0,2.0\nNA,3.0,4.0\n")
    with pytest.raises(DataError, match="row 3"):
        read_dataset(path)


def test_bad_header_token(tmp_path):
    path = _write(tmp_path, "time,0.0,1.0\n1,1.0,2.0\n")
    with pytest.raises(DataError, match="'t'"):
        read_dataset(path)


def test_short_grid_rejected(tmp_path):
    path = _write(tmp_path, "t,0.5\n1,1.0\n")
    with pytest.raises(DataError, match="at least 2"):
        read_dataset(path)


def test_non_increasing_grid_names_column(tmp_path):
    path = _write(tmp_path, "t,0.0,0.5,0.5,1.0\n1,1.0,2.0,3.0,4.0\n")
    with pytest.raises(DataError, match="column 4: grid not strictly "
                                        "increasing at t=0.5$"):
        read_dataset(path)


def test_ragged_row_reports_row(tmp_path):
    path = _write(tmp_path, "t,0.0,1.0\n1,1.0,2.0\n0,3.0\n")
    with pytest.raises(DataError, match="row 3"):
        read_dataset(path)


def test_unparseable_value_reports_position(tmp_path):
    path = _write(tmp_path, "t,0.0,1.0\n1,1.0,oops\n")
    with pytest.raises(DataError, match="row 2, column 3"):
        read_dataset(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_value_reports_position(tmp_path, cell):
    path = _write(tmp_path, f"t,0.0,1.0\n1,1.0,2.0\n0,3.0,{cell}\n")
    with pytest.raises(DataError, match="row 3, column 3"):
        read_dataset(path)


def test_bad_label_value(tmp_path):
    path = _write(tmp_path, "t,0.0,1.0\n2,1.0,2.0\n")
    with pytest.raises(DataError, match="label"):
        read_dataset(path)


def test_empty_and_headerless_files(tmp_path):
    with pytest.raises(DataError, match="empty"):
        read_dataset(_write(tmp_path, "", "empty.csv"))
    with pytest.raises(DataError, match="no data rows"):
        read_dataset(_write(tmp_path, "t,0.0,1.0\n", "hdr.csv"))


def test_written_bytes_are_pinned(tmp_path):
    awkward = [0.17500000000000002, 1e-05, 1e+16, -0.0, 5e-324]
    labeled = FunctionalDataset([-0.0, 5e-324, 1e-05], [awkward[:3], awkward[2:]],
                                [1, 0])
    path = tmp_path / "labeled.csv"
    write_dataset(path, labeled, comment="seed=3\nnote")
    assert path.read_bytes() == (
        b"# seed=3\n# note\n"
        b"t,-0.0,5e-324,1e-05\n"
        b"1,0.17500000000000002,1e-05,1e+16\n"
        b"0,1e+16,-0.0,5e-324\n")
    unlabeled = FunctionalDataset([0.0, 1.0], [[1e+16, -0.0]])
    write_dataset(tmp_path / "unlabeled.csv", unlabeled)
    assert (tmp_path / "unlabeled.csv").read_bytes() == \
        b"t,0.0,1.0\nNA,1e+16,-0.0\n"
    assert _bits(read_dataset(path)) == _bits(labeled)


def test_curve_file_round_trips_bit_exactly(tmp_path):
    t = [-0.0, 5e-324, 0.17500000000000002, 1e+16]
    values = [1e-05, -0.0, 0.1, -2.5]
    path = tmp_path / "beta.csv"
    write_csv(path, ["t", "beta", "is_null"],
              ((a, v, int(v == 0.0)) for a, v in zip(t, values)),
              comment="scenario=one-null\nseed=3")
    assert path.read_bytes() == (
        b"# scenario=one-null\n# seed=3\nt,beta,is_null\n"
        b"-0.0,1e-05,0\n5e-324,-0.0,1\n0.17500000000000002,0.1,0\n"
        b"1e+16,-2.5,0\n")
    got_t, got_values = read_curve(path)
    assert got_t.tobytes() == np.array(t).tobytes()
    assert got_values.tobytes() == np.array(values).tobytes()


def test_whitespace_only_line_is_a_ragged_row(tmp_path):
    path = _write(tmp_path, "t,0.0,1.0\n1,1.0,2.0\n   \n0,3.0,4.0\n")
    with pytest.raises(DataError, match=r"^row 3: expected 3 cells, got 1$"):
        read_dataset(path)


def test_quoted_cells_and_crlf_line_ends(tmp_path):
    path = _write(tmp_path, 't,"0.0",1.0\r\n"NA"," 1.5 ",2.0\r\n# x,"y"\r\n'
                            'na,3.0,"-4e-3"\r\n')
    data = read_dataset(path)
    assert data.labels is None
    np.testing.assert_array_equal(data.values, [[1.5, 2.0], [3.0, -4e-3]])


def test_a_comment_is_one_whole_line(tmp_path):
    # a quote in a comment does not open a cell that runs over later lines
    path = _write(tmp_path, '# units,"mV\nt,0.0,1.0\n1,1.0,2.0\n# end"\n'
                            '0,3.0,4.0\n')
    assert read_dataset(path).n_samples == 2
    # and a quoted '#' is a cell, not a comment mark
    path = _write(tmp_path, 't,0.0,1.0\n"#",1.0,2.0\n', "quoted.csv")
    with pytest.raises(DataError, match="row 2, column 1: cannot parse '#'"):
        read_dataset(path)


def test_mid_line_hash_is_not_a_comment(tmp_path):
    path = _write(tmp_path, "t,0.0,1.0\n1,1.0,2.0 # note\n")
    with pytest.raises(DataError, match="row 2, column 3: cannot parse "
                                        "'2.0 # note' as a number"):
        read_dataset(path)


# -- streaming: memory, and faults met after earlier lines were parsed ------

@pytest.fixture(scope="module")
def spectra():
    """A labeled 2000 x 201 dataset, the size of a dense-spectra study."""
    rng = np.random.default_rng(5)
    return FunctionalDataset(np.linspace(0, 1, 201),
                             rng.standard_normal((2000, 201)),
                             rng.integers(0, 2, 2000))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_holds_about_one_table(tmp_path, spectra):
    path = tmp_path / "spectra.csv"
    write_dataset(path, spectra)
    peak = _traced_peak(lambda: read_dataset(path))
    assert peak <= 3 * spectra.values.nbytes


def test_write_holds_one_row_at_a_time(tmp_path, spectra):
    peak = _traced_peak(lambda: write_dataset(tmp_path / "spectra.csv",
                                              spectra))
    assert peak <= 0.5 * spectra.values.nbytes


def _late_fault(path, fault):
    """A 200 x 51 labeled file of about 200 kB with ``fault`` in its last
    row; returns the file's bytes."""
    rng = np.random.default_rng(3)
    write_dataset(path, FunctionalDataset(np.linspace(0, 1, 51),
                                          rng.standard_normal((200, 51)),
                                          rng.integers(0, 2, 200)))
    head, last = path.read_bytes()[:-1].rsplit(b"\n", 1)
    cells = last.split(b",")
    if fault == "ragged":
        cells.pop()
    elif fault == "nan":
        cells[-1] = b"nan"
    elif fault == "lone-cr":
        cells[25] += b"\r"
    elif fault == "not-utf8":
        cells[-1] = b"\xff" + cells[-1]
    return head + b"\n" + b",".join(cells) + b"\n"


@pytest.mark.parametrize("fault, message", [
    ("ragged", r"^row 201: expected 52 cells, got 51$"),
    ("nan", r"^row 201, column 52: 'nan' is not finite$"),
    ("lone-cr", r"^row 201: expected 52 cells, got 26$"),
    ("not-utf8", r"^data file .*late\.csv is not UTF-8 text: byte \d{6} "
                 r"is 0xff$")])
def test_late_fault_fails_as_per_cell(tmp_path, fault, message):
    path = tmp_path / "late.csv"
    raw = _late_fault(path, fault)
    assert len(raw) > 2 ** 16
    path.write_bytes(raw)
    with pytest.raises(DataError, match=message) as err:
        read_dataset(path)
    with pytest.raises(DataError) as reference:
        dataio._read_cells(path, dataio._read_text(path))
    assert str(err.value) == str(reference.value)


# -- property tests: the one-pass reader against the per-cell reader --------

def _bits(data):
    """A dataset as comparable bits: -0.0 differs from 0.0, as in the file."""
    labels = None if data.labels is None else data.labels.tolist()
    return (data.grid.view(np.int64).tolist(),
            data.values.view(np.int64).tolist(), data.values.shape, labels)


def _outcome(read):
    """A reader's result as bits, or its DataError text."""
    try:
        return _bits(read())
    except DataError as exc:
        return "error", str(exc)


_TRICKY_CELLS = ["t", "NA", " na ", "nan", "inf", "-Infinity", "1e999", "5e-324",
                 "1_0", "١", "0x1", '"1"', '" 2.5 "', '""', '"1""2"',
                 '"1,2"', '"#"', '" # c"', "#", " # x", "3#4", "", " ", "\t",
                 "\x00", "\x1c1", "1\xa0", "1\x85", '"', "0", "1", "-0.0", "2"]
_cells = st.one_of(st.sampled_from(_TRICKY_CELLS),
                   st.floats(allow_nan=False).map(repr),
                   st.text(max_size=4))
_lines = st.one_of(st.lists(_cells, max_size=5).map(",".join),
                   st.sampled_from(["t,0.0,0.5,1.0", "1,2.0,3.0,4.0",
                                    "NA,2.0,3.0,4.0", "# a note", '# a,"b']))
_texts = st.one_of(
    st.text(),
    st.lists(st.tuples(_lines, st.sampled_from(["\n", "\r\n", "\r", "\n\n"])),
             max_size=8).map(lambda parts: "".join(a + b for a, b in parts)))
_files = settings(max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@_files
@given(text=_texts)
def test_any_text_loads_or_raises_data_error_as_per_cell(tmp_path, text):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(lambda: read_dataset(path)) == \
        _outcome(lambda: dataio._read_cells(path, text))


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _datasets(draw):
    grid = sorted(set(draw(st.lists(_finite, min_size=2, max_size=6))))
    assume(len(grid) >= 2)
    n = draw(st.integers(1, 6))
    values = draw(st.lists(st.lists(_finite, min_size=len(grid),
                                    max_size=len(grid)),
                           min_size=n, max_size=n))
    labels = draw(st.none() | st.lists(st.integers(0, 1), min_size=n,
                                       max_size=n))
    return FunctionalDataset(grid, values, labels)


def _per_cell_reader_unused():
    return mock.patch.object(dataio, "_read_cells",
                             side_effect=AssertionError("per-cell reader ran"))


@_files
@given(data=_datasets(), comment=st.none() | st.text(max_size=20))
def test_written_files_round_trip_bit_exactly(tmp_path, data, comment):
    path = tmp_path / "rt.csv"
    write_dataset(path, data, comment)
    with _per_cell_reader_unused():
        assert _bits(read_dataset(path)) == _bits(data)


@_files
@given(data=_datasets(), pads=st.lists(st.sampled_from(["", " ", "  ", "\t"]),
                                       min_size=2, max_size=2),
       comments=st.lists(st.sampled_from(["# note", "  # indented, with a,comma",
                                          "#"]), max_size=3),
       line_end=st.sampled_from(["\n", "\r\n"]))
def test_padded_files_with_comments_parse_bit_exactly(tmp_path, data, pads,
                                                      comments, line_end):
    left, right = pads

    def line(cells):
        return ",".join(left + c + right for c in cells)

    labels = (["NA"] * data.n_samples if data.labels is None
              else [str(lab) for lab in data.labels.tolist()])
    lines = [line(["t", *map(repr, data.grid.tolist())])]
    lines += [line([lab, *map(repr, row)])
              for lab, row in zip(labels, data.values.tolist())]
    for i, text in enumerate(comments):
        lines.insert(i * 2, text)
    path = tmp_path / "padded.csv"
    path.write_bytes((line_end.join(lines) + line_end).encode())
    with _per_cell_reader_unused():
        assert _bits(read_dataset(path)) == _bits(data)


@_files
@given(data=_datasets(), pick=st.tuples(st.integers(0), st.integers(0)),
       fault=st.sampled_from(["oops", "nan", "-inf", "1e999", "3 # note", "#",
                              "", "1 2", '"1,2"', "ragged-short",
                              "ragged-long", "label-2", "label-nan"]),
       comment_at=st.integers(0))
def test_one_faulty_row_fails_as_per_cell(tmp_path, data, pick, fault,
                                          comment_at):
    path = tmp_path / "faulty.csv"
    write_dataset(path, data)
    lines = path.read_text().splitlines()
    row = 1 + pick[0] % data.n_samples
    cells = lines[row].split(",")
    if fault == "ragged-short":
        cells.pop()
    elif fault == "ragged-long":
        cells.append("1.0")
    elif fault.startswith("label-"):
        cells[0] = fault[len("label-"):]
    else:
        cells[1 + pick[1] % data.n_points] = fault
    lines[row] = ",".join(cells)
    # a comment line before the fault does not count towards its row number
    lines.insert(1 + comment_at % row, "# midway")
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        read_dataset(path)
    with pytest.raises(DataError) as reference:
        dataio._read_cells(path, text)
    assert str(err.value) == str(reference.value)
    if not fault.startswith("label-"):
        assert str(err.value).startswith(f"row {row + 1}")


# -- cells longer than csv reads ---------------------------------------------

@pytest.mark.parametrize("text, row", [
    ("t,0.0,1.0\n1," + "a" * 200_001 + ",2.0\n", 2),
    ("t," + "1" * 200_001 + ",2.0\n1,1.0,2.0\n", 1),
    # finite, so np.loadtxt alone would read it
    ("t,0.0,1.0\n1,0." + "0" * 140_000 + "1,2.0\n", 2),
    # no piece between commas is over the limit, but the quoted cell is
    ('t,"' + "1," * 70_000 + '",2.0\n1,1.0,2.0\n', 1),
], ids=["data", "header", "finite", "quoted-header"])
def test_over_long_cell_fails_as_per_cell(tmp_path, text, row):
    path = _write(tmp_path, text)
    with pytest.raises(DataError) as err:
        read_dataset(path)
    with pytest.raises(DataError) as reference:
        dataio._read_cells(path, text)
    assert str(err.value) == str(reference.value) == (
        f"row {row}: field larger than field limit "
        f"({csv.field_size_limit()})")


def test_long_lines_of_short_cells_take_the_one_pass_reader(tmp_path):
    rng = np.random.default_rng(8)
    data = FunctionalDataset(np.linspace(0, 1, 10_000),
                             rng.standard_normal((3, 10_000)), [0, 1, 1])
    path = tmp_path / "wide.csv"
    write_dataset(path, data)
    assert min(map(len, path.read_text().splitlines())) > \
        csv.field_size_limit()
    with _per_cell_reader_unused():
        assert _bits(read_dataset(path)) == _bits(data)
