"""CSV round trips and the two IOData readers.

``IOData.from_csv`` parses data lines with one ``np.loadtxt``
(``lti_core._loadtxt_table``) and falls back to the CSV row reader
``_CsvRows`` for any file that parser does not take exactly as the row
reader would.  These tests pin that both readers agree on every file
the fast one accepts, that malformed files keep their messages, and that
all three file formats round trip every float bit for bit (a nan keeps
no sign in the text format).  Records may hold nan and inf, which the
verbs reject by sample; a Markov parameter file or a filter bundle with
one is refused on reading.  The three tables led by the sample counter
``k`` write it with ``%d``; their bytes are pinned against the former
all-``%.17g`` writer.  Every writer rewrites an existing file in place
and cuts it to length, so a rewrite leaves no old tail, a device or a
pipe still takes the bytes, and a symlink and the target's mode stay.
"""
import csv
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from faultfilter import (
    AlgorithmResult,
    ExperimentReport,
    FaultEstimationFilter,
    IdentifiedXi,
    IOData,
    ValidationError,
    ellipse_stats,
    open_loop_inverse,
    reduced_filter,
    run_filter,
    stabilizing_gain,
)
from faultfilter.bench_cli import main
from faultfilter.lti_core import _CsvRows, _loadtxt_table, _u_columns, _write_csv

from conftest import stable_invertible_predictor

SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
           2.2250738585072014e-308, -1.1125369292536007e-308, 1.7976931348623157e308]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
FINITE = st.one_of(st.sampled_from([v for v in SPECIAL if np.isfinite(v)]),
                   st.floats(width=64, allow_nan=False, allow_infinity=False))
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def matrices(rows, cols, elements=VALUES):
    return hnp.arrays(np.float64, (rows, cols), elements=elements)


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
    stacked = data.draw(matrices(ny, p * (nu + ny) + nu, FINITE))
    cov = data.draw(matrices(ny, ny, FINITE))
    xi = IdentifiedXi.from_stacked(stacked, p, nu, ny, residual_variance=cov)
    path = tmp_path_factory.mktemp("xi") / "xi.csv"
    xi.to_csv(path)
    back = IdentifiedXi.from_csv(path)
    assert (back.p, back.n_u, back.n_y) == (p, nu, ny)
    assert_same_bits(back.stacked(), xi.stacked())
    assert_same_bits(back.residual_variance, xi.residual_variance)
    # a nan or inf cell is refused with its file row: the manifest takes
    # rows 1-2, the coefficients the next ny and the covariance the last ny
    r = data.draw(st.integers(0, 2 * ny - 1))
    block = stacked if r < ny else cov
    block[r % ny, data.draw(st.integers(0, block.shape[1] - 1))] = data.draw(NON_FINITE)
    # written by the writer of to_csv, since IdentifiedXi refuses the entry
    _write_csv(path, [["p", "n_u", "n_y"], [p, nu, ny]], stacked, cov)
    with pytest.raises(ValidationError) as info:
        IdentifiedXi.from_csv(path)
    what = "the Markov coefficients" if r < ny else "the residual covariance"
    assert str(info.value) == f"{path}: row {r + 3}: non-finite value in {what}"


@settings(max_examples=40)
@given(st.data())
def test_filter_bundle_round_trip(tmp_path_factory, data):
    n, nu, ny, nf = (data.draw(st.integers(lo, 4)) for lo in (0, 1, 1, 1))
    shapes = {"Af": (n, n), "Bu": (n, nu), "By": (n, ny),
              "Cf": (nf, n), "Du": (nf, nu), "Dy": (nf, ny)}
    mats = {k: data.draw(matrices(*s, FINITE)) for k, s in shapes.items()}
    filt = FaultEstimationFilter(**mats, strategy="pole_placement")
    path = tmp_path_factory.mktemp("filter") / "filter.csv"
    filt.to_csv(path)
    back = FaultEstimationFilter.from_csv(path)
    assert back.strategy == "pole_placement"
    for name in shapes:
        assert_same_bits(getattr(back, name), getattr(filt, name))
    # a nan or inf entry is refused with its matrix and file row; each
    # matrix takes a header row and then its rows, after a 2-row manifest
    name = data.draw(st.sampled_from([k for k, M in mats.items() if M.size]))
    r, c = (data.draw(st.integers(0, d - 1)) for d in shapes[name])
    mats[name][r, c] = data.draw(NON_FINITE)
    FaultEstimationFilter(**mats).to_csv(path)
    with pytest.raises(ValidationError) as info:
        FaultEstimationFilter.from_csv(path)
    names = list(shapes)
    row = 2 + sum(1 + shapes[k][0] for k in names[:names.index(name)]) + 2 + r
    assert str(info.value) == f"{path}: row {row}: non-finite value in matrix {name}"


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
    # each line's k cell is its row index, which from_csv requires
    path = tmp_path_factory.mktemp("fuzz") / "f.csv"
    path.write_bytes((header + "".join(",".join([str(i)] + c[1:]) + e
                                       for i, (c, e) in enumerate(lines))).encode())
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
    "columns out of order": ("k,y1,u1\r\n0,1,2\r\n", "malformed header ['k', 'y1', 'u1']"),
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


# k cells of a two-column record, and the message after "<path>: "
BAD_K = {
    "gap": (["0", "5", "5"], "row 3: k = 5, expected 1"),
    "repeat": (["0", "1", "1"], "row 4: k = 1, expected 2"),
    "start at 1": (["1", "2"], "row 2: k = 1, expected 0"),
    "non-integer": (["0", "0.5"], "row 3: k = 0.5, expected 1"),
}


@pytest.mark.parametrize("quote", [False, True], ids=["loadtxt", "row-reader"])
@pytest.mark.parametrize("name", list(BAD_K))
def test_k_column_must_count_rows(tmp_path, name, quote):
    ks, want = BAD_K[name]
    u = '"1.5"' if quote else "1.5"  # a quoted cell sends the file to the row reader
    path = tmp_path / "bad.csv"
    path.write_text("k,u1,y1\n" + "".join(f"{k},{u},2\n" for k in ks))
    assert (_loadtxt_table(path) is None) == quote
    with pytest.raises(ValidationError) as info:
        IOData.from_csv(path)
    assert str(info.value) == f"{path}: {want}"


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


def float_k_csv(path, header, table):
    """Oracle: the table writer as it was before ``k`` took ``%d``.

    Every cell of the table, the sample counter ``k`` included, went
    through ``%.17g``.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(header)
        row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
        fh.write(row * table.shape[0] % tuple(table.ravel().tolist()))


def k_table_values(rng, N, cols):
    """Random values of all magnitudes led by as many SPECIAL values as fit."""
    X = rng.standard_normal((N, cols)) * 10.0 ** rng.integers(-320, 300, (N, cols))
    n = min(X.size, len(SPECIAL))
    X.reshape(-1)[:n] = SPECIAL[:n]
    return X


# k = 0 and 1, a table holding every SPECIAL value, and one whose last k is 10^4
K_TABLE_ROWS = [1, 2, len(SPECIAL), 10 ** 4 + 1]


@pytest.mark.parametrize("N", K_TABLE_ROWS)
def test_k_column_bytes_of_iodata(tmp_path, N):
    rng = np.random.default_rng(N)
    u, y = k_table_values(rng, N, 2), k_table_values(rng, N, 3)
    IOData(u, y).to_csv(tmp_path / "got.csv")
    float_k_csv(tmp_path / "want.csv", [["k", "u1", "u2", "y1", "y2", "y3"]],
                np.column_stack([np.arange(N), u, y]))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("N", K_TABLE_ROWS)
def test_k_column_bytes_of_report_estimates(tmp_path, N):
    rng = np.random.default_rng(N)
    fault, est = k_table_values(rng, N, 2), k_table_values(rng, N, 2)
    stats = ellipse_stats(rng.standard_normal((3, 2)))
    ExperimentReport(plant="unstable4", seed=0, window=(0, N), fault=fault,
                     results=[AlgorithmResult(name="alg0", ok=True, estimates=est,
                                              stats=stats)]).write(tmp_path)
    float_k_csv(tmp_path / "want.csv", [["k", "f1", "f2", "alg0_f1", "alg0_f2"]],
                np.column_stack([np.arange(N), fault, est]))
    assert ((tmp_path / "estimates.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


@pytest.mark.parametrize("N", K_TABLE_ROWS)
def test_k_column_bytes_of_estimate_verb(tmp_path, N):
    # the verb refuses non-finite samples, so its values are plain floats
    rng = np.random.default_rng(N)
    pred = stable_invertible_predictor(rng)
    inv = open_loop_inverse(pred)
    reduced_filter(pred, stabilizing_gain(inv.Phi1, inv.C2)).to_csv(tmp_path / "f.csv")
    IOData(rng.standard_normal((N, 2)), rng.standard_normal((N, 2))).to_csv(
        tmp_path / "io.csv")
    assert main(["estimate", "--filter", str(tmp_path / "f.csv"), "--data",
                 str(tmp_path / "io.csv"), "--out", str(tmp_path / "out")]) == 0
    fhat = run_filter(FaultEstimationFilter.from_csv(tmp_path / "f.csv"),
                      IOData.from_csv(tmp_path / "io.csv"))
    float_k_csv(tmp_path / "want.csv", [["k", "fhat1"]],
                np.column_stack([np.arange(N), fhat]))
    assert ((tmp_path / "out" / "estimates.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


_rng = np.random.default_rng(4)
_RECORD = IOData(_rng.standard_normal((30, 1)), _rng.standard_normal((30, 2)))
_XI = IdentifiedXi.from_stacked(_rng.standard_normal((2, 7)), 2, 1, 2,
                                residual_variance=np.eye(2))
_FILTER = FaultEstimationFilter(0.5 * np.eye(2), np.ones((2, 1)), np.ones((2, 2)),
                                np.ones((1, 2)), np.zeros((1, 1)), np.ones((1, 2)))
_fault, _est = _rng.standard_normal((40, 2)), _rng.standard_normal((40, 2))
_REPORT = ExperimentReport(
    plant="unstable4", seed=0, window=(0, 40), fault=_fault,
    results=[AlgorithmResult(name="alg0", ok=True, estimates=_est,
                             stats=ellipse_stats(_est - _fault), macs_per_sample=12),
             AlgorithmResult(name="alg1", ok=False, message="identify: failed")])
# each package writer, writing its files into a directory
WRITERS = {
    "iodata": lambda d: _RECORD.to_csv(d / "run.csv"),
    "xi": lambda d: _XI.to_csv(d / "xi.csv"),
    "filter": lambda d: _FILTER.to_csv(d / "filter.csv"),
    "report": _REPORT.write,
}


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
def test_rewrite_leaves_no_old_tail(tmp_path, writer):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    fresh.mkdir()
    old.mkdir()
    writer(fresh)
    names = sorted(path.name for path in fresh.iterdir())
    for name in names:
        (old / name).write_bytes(b"junk," * (len((fresh / name).read_bytes()) + 100))
    writer(old)
    for name in names:
        assert (fresh / name).stat().st_size > 0
        assert (old / name).read_bytes() == (fresh / name).read_bytes(), name


def test_writes_to_a_device_and_a_pipe(tmp_path):
    _RECORD.to_csv(os.devnull)
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes here")
    _RECORD.to_csv(tmp_path / "want.csv")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # the read end opens without blocking, so the writer's open finds a
    # reader; a second write end, held until to_csv returns, keeps the
    # reader from seeing the end of the data before to_csv opens the pipe
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    os.set_blocking(fd, True)
    hold = os.open(fifo, os.O_WRONLY)
    got = []
    with os.fdopen(fd, "rb") as fh:
        reader = threading.Thread(target=lambda: got.append(fh.read()))
        reader.start()
        try:
            _RECORD.to_csv(fifo)
        finally:
            os.close(hold)
            reader.join()
    assert got == [(tmp_path / "want.csv").read_bytes()]


def test_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"junk," * 1000)
    target.chmod(0o600)
    try:
        link.symlink_to(target.name)
    except (OSError, NotImplementedError):
        pytest.skip("no symlinks here")
    _RECORD.to_csv(link)
    _RECORD.to_csv(tmp_path / "want.csv")
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
def test_writers_open_without_truncating(tmp_path, monkeypatch, writer):
    # truncating a file and writing it again makes ext4 write the blocks
    # out on close; this holds on any file system
    opened, real_open = {}, os.open

    def spy(path, flags, *args, **kwargs):
        opened[os.fspath(path)] = flags
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    writer(tmp_path)
    written = {str(path) for path in tmp_path.iterdir()}
    assert written and written <= set(opened)
    assert [path for path, flags in opened.items() if flags & os.O_TRUNC] == []
