"""CSV round trips and the two IOData readers.

``IOData.from_csv`` parses data lines with one ``np.loadtxt``
(``lti_core._loadtxt_table``) and falls back to the CSV row reader
``_CsvRows`` for any file that parser does not take exactly as the row
reader would.  These tests pin that both readers agree on every file
the fast one accepts, that malformed files keep their messages, and that
all three file formats round trip every float bit for bit (a nan keeps
no sign in the text format).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from faultfilter import (
    FaultEstimationFilter,
    IdentifiedXi,
    IOData,
    ValidationError,
)
from faultfilter.lti_core import _CsvRows, _loadtxt_table, _u_columns

SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
           2.2250738585072014e-308, -1.1125369292536007e-308, 1.7976931348623157e308]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


def matrices(rows, cols):
    return hnp.arrays(np.float64, (rows, cols), elements=VALUES)


def assert_same_bits(got, want):
    """Equal shape and values, zeros and infinities with their sign."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    keep = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[keep]), np.signbit(want[keep]))


def row_reader(path):
    """(u, y) of a record read by the CSV row reader alone."""
    rows = _CsvRows(path)
    header = rows[0]
    nu = _u_columns(header)
    assert nu is not None, header
    data = rows.floats(1, len(rows), len(header))
    return data[:, 1:1 + nu], data[:, 1 + nu:]


@settings(max_examples=60)
@given(st.data())
def test_iodata_round_trip(tmp_path_factory, data):
    n, nu, ny = (data.draw(st.integers(lo, 6)) for lo in (0, 0, 1))
    rec = IOData(data.draw(matrices(n, nu)), data.draw(matrices(n, ny)))
    path = tmp_path_factory.mktemp("io") / "run.csv"
    rec.to_csv(path)
    back = IOData.from_csv(path)
    assert_same_bits(back.u, rec.u)
    assert_same_bits(back.y, rec.y)
    # every written record with a sample takes the loadtxt path
    assert (_loadtxt_table(path) is None) == (n == 0)


@settings(max_examples=40)
@given(st.data())
def test_identified_xi_round_trip(tmp_path_factory, data):
    p, nu, ny = (data.draw(st.integers(1, 3)) for _ in range(3))
    xi = IdentifiedXi.from_stacked(data.draw(matrices(ny, p * (nu + ny) + nu)), p, nu, ny,
                                   residual_variance=data.draw(matrices(ny, ny)))
    path = tmp_path_factory.mktemp("xi") / "xi.csv"
    xi.to_csv(path)
    back = IdentifiedXi.from_csv(path)
    assert (back.p, back.n_u, back.n_y) == (p, nu, ny)
    assert_same_bits(back.stacked(), xi.stacked())
    assert_same_bits(back.residual_variance, xi.residual_variance)


@settings(max_examples=40)
@given(st.data())
def test_filter_bundle_round_trip(tmp_path_factory, data):
    n, nu, ny, nf = (data.draw(st.integers(lo, 4)) for lo in (0, 1, 1, 1))
    shapes = {"Af": (n, n), "Bu": (n, nu), "By": (n, ny),
              "Cf": (nf, n), "Du": (nf, nu), "Dy": (nf, ny)}
    filt = FaultEstimationFilter(**{k: data.draw(matrices(*s)) for k, s in shapes.items()},
                                 strategy="pole_placement")
    path = tmp_path_factory.mktemp("filter") / "filter.csv"
    filt.to_csv(path)
    back = FaultEstimationFilter.from_csv(path)
    assert back.strategy == "pole_placement"
    for name in shapes:
        assert_same_bits(getattr(back, name), getattr(filt, name))


HEADERS = ["k,u1,y1\r\n", "k,u1,y1\n", "k,u1,y1\ry2\n", "k,u1\ry1\n",
           '"k",u1,y1\r\n', 'k,"u1",y1\n', "k,u1,y1\r"]
GOOD_CELLS = ["0", "1.5", "-0", "nan", "-inf", "1e-320", " 2 ", "\x851"]
ODD_CELLS = ["1_0", "١", '"2"', "", "abc"]
ENDS = ["\r\n", "\n", "\r", "\r\r\n", "\n\n", ""]
LINES = st.tuples(
    st.one_of(st.lists(st.sampled_from(GOOD_CELLS), min_size=2, max_size=3),
              st.lists(st.sampled_from(GOOD_CELLS + ODD_CELLS), min_size=1, max_size=4)),
    st.one_of(st.sampled_from(ENDS[:2]), st.sampled_from(ENDS)))


@settings(max_examples=400)
@given(st.sampled_from(HEADERS), st.lists(LINES, min_size=1, max_size=6))
def test_fast_path_agrees_with_row_reader(tmp_path_factory, header, lines):
    path = tmp_path_factory.mktemp("fuzz") / "f.csv"
    path.write_bytes((header + "".join(",".join(c) + e for c, e in lines)).encode())
    table = _loadtxt_table(path)
    if table is not None and _u_columns(table[0]) is not None:
        back = IOData.from_csv(path)
        u, y = row_reader(path)  # raises where the row reader rejects the file
        assert_same_bits(back.u, u)
        assert_same_bits(back.y, y)


# (file text, parent outcome): the message after "<path>: ", or the (u, y) read
MALFORMED = {
    "blank line": ("k,u1,y1\r\n0,1,2\r\n\r\n1,3,4\r\n", "row 3 has 0 fields, expected 3"),
    "quoted cell": ('k,u1,y1\r\n0,"1.5",2\r\n', ([[1.5]], [[2.0]])),
    "underscore": ("k,u1,y1\r\n0,1_000,2\r\n", ([[1000.0]], [[2.0]])),
    "non-ascii digit": ("k,u1,y1\r\n0,١,2\r\n", ([[1.0]], [[2.0]])),
    "short row": ("k,u1,y1\r\n0,1,2\r\n1,3\r\n", "row 3 has 2 fields, expected 3"),
    "trailing comma": ("k,u1,y1\r\n0,1,2,\r\n", "row 2 has 4 fields, expected 3"),
    "header only": ("k,u1,y1\r\n", (np.empty((0, 1)), np.empty((0, 1)))),
    "blank lines only": ("k,u1,y1\r\n\r\n", "row 2 has 0 fields, expected 3"),
    "CR only": ("k,u1,y1\r0,1,2\r1,3,4\r", ([[1.0], [3.0]], [[2.0], [4.0]])),
    "CR before CRLF": ("k,u1,y1\r\n0,1,2\r\r\n", "row 3 has 0 fields, expected 3"),
    "CR inside a line": ("k,u1,y1\r\n0,1\r2\r\n", "row 2 has 2 fields, expected 3"),
    "CR after the last line": ("k,u1,y1\r\n0,1,2\n\r", "row 3 has 0 fields, expected 3"),
    "quoted header": ('"k",u1,y1\r\n0,1,2\r\n', ([[1.0]], [[2.0]])),
    "CR inside the header": ("k,u1,y1\ry2\n0,1,2\n", "row 2 has 1 fields, expected 3"),
    "non-numeric": ("k,u1,y1\r\n0,abc,2\r\n",
                    "non-numeric cell: could not convert string to float: 'abc'"),
    "bad header": ("k,u1,z1\r\n0,1,2\r\n", "malformed header ['k', 'u1', 'z1']"),
    "empty": ("", "expected header starting with 'k'"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_files_keep_their_outcome(tmp_path, name):
    text, want = MALFORMED[name]
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    # none of these may take the loadtxt path
    table = _loadtxt_table(path)
    assert table is None or _u_columns(table[0]) is None
    if isinstance(want, str):
        with pytest.raises(ValidationError) as info:
            IOData.from_csv(path)
        assert str(info.value) == f"{path}: {want}"
    else:
        back = IOData.from_csv(path)
        assert_same_bits(back.u, np.asarray(want[0], dtype=float))
        assert_same_bits(back.y, np.asarray(want[1], dtype=float))


def test_missing_file_message(tmp_path):
    path = tmp_path / "missing.csv"
    with pytest.raises(ValidationError) as info:
        IOData.from_csv(path)
    assert str(info.value) == (f"{path}: cannot read: [Errno 2] No such file or "
                               f"directory: '{path}'")


def test_lf_and_crlf_take_the_fast_path(tmp_path):
    for end in ("\n", "\r\n"):
        path = tmp_path / "ok.csv"
        path.write_bytes(end.join(["k,u1,y1,y2", "0,1,2,3", "1,-0,nan,-inf"]).encode())
        table = _loadtxt_table(path)
        assert table is not None
        back = IOData.from_csv(path)
        assert_same_bits(back.u, np.array([[1.0], [-0.0]]))
        assert_same_bits(back.y, np.array([[2.0, 3.0], [np.nan, -np.inf]]))
