"""Property tests of the shared '# key=value' CSV format and its readers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarot import cli, measure, sweeps, tomography
from polarot.csvfile import read_csv, read_labeled, unsigned_zeros, write_csv

# text that survives a line-oriented format: no line breaks, no surrounding
# whitespace, and (for cells) no comma
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=0x3ff,
                              blacklist_characters="\x7f"), min_size=1, max_size=12)
_KEY = _TEXT.filter(lambda s: s == s.strip() and "=" not in s)
_VALUE = _TEXT.filter(lambda s: s == s.strip())
_CELL = _TEXT.filter(lambda s: s == s.strip() and "," not in s)
_COUNT = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
_SETTING_ID = st.sampled_from(["Z", "X", "Y", "lin:22.500000", "lin:-45.000000",
                               "wp:10.000000:20.000000"])


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "file.csv"


@settings(max_examples=60, deadline=None)
@given(metadata=st.dictionaries(_KEY, _VALUE, max_size=4),
       header=st.lists(_CELL.filter(lambda s: " " not in s and s[0] != "#"),
                       min_size=1, max_size=4),
       data=st.data())
def test_write_read_round_trip(path, metadata, header, data):
    rows = data.draw(st.lists(st.lists(_CELL, min_size=len(header),
                                       max_size=len(header)), max_size=5))
    rows = [r for r in rows if not r[0].startswith("#")]  # a '#' line is a comment
    write_csv(path, list(metadata.items()), ",".join(header), rows)
    assert read_csv(path, ",".join(header)) == (metadata, rows)


def _write_csv_line_by_line(path, metadata_items, header, rows):
    """Oracle: the format written one line per call."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in metadata_items:
            fh.write(f"# {key}={value}\n")
        fh.write(header + "\n")
        for cells in rows:
            fh.write(",".join(cells) + "\n")


@settings(max_examples=60, deadline=None)
@given(metadata=st.dictionaries(_KEY, _VALUE, max_size=4),
       header=st.lists(_CELL, min_size=1, max_size=4),
       rows=st.lists(st.lists(_CELL, min_size=1, max_size=4), max_size=5))
@example(metadata={"seed": "1", "exact": "0"}, header=["a", "b"], rows=[])
@example(metadata={}, header=["a"], rows=[])
def test_write_csv_bytes_match_a_line_per_write(path, metadata, header, rows):
    # one write per file gives the bytes of one write per line, metadata-only
    # and empty files included
    expected = path.with_name("expected.csv")
    _write_csv_line_by_line(expected, list(metadata.items()), ",".join(header), rows)
    write_csv(path, list(metadata.items()), ",".join(header), rows)
    assert path.read_bytes() == expected.read_bytes()


# signed zeros, infinities, nan, subnormals and huge values, besides any float
_SWEEP_VALUE = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 1e300,
     -1e300, 0.5e-6, 1234567890.5]))


@settings(max_examples=100, deadline=None)
@given(names=st.lists(st.sampled_from(["theta_b_deg", "sigma_deg", "m_zz", "molarity"]),
                      min_size=1, max_size=6),
       data=st.data())
def test_sweep_rows_match_per_cell_format(path, names, data):
    # write_sweep formats each row with one %-format string; the bytes are
    # those of "{:.6f}" (angle columns, named *_deg), with -0.000000 written
    # 0.000000, and "{:.10g}" per cell
    rows = data.draw(st.lists(st.lists(_SWEEP_VALUE, min_size=len(names),
                                       max_size=len(names)), max_size=4))
    result = sweeps.SweepResult("theta_b", tuple(names),
                                np.array(rows, dtype=float).reshape(-1, len(names)),
                                {"seed": 7, "exact": 0})
    sweeps.write_sweep(result, path)

    def cell(name, value):
        if not name.endswith("_deg"):
            return f"{value:.10g}"
        return "0.000000" if f"{value:.6f}" == "-0.000000" else f"{value:.6f}"

    lines = ["# exact=0", "# seed=7", "# variable=theta_b", ",".join(names)]
    lines += [",".join(cell(name, v) for name, v in zip(names, row)) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


# read_table returns metadata values as the strings written
@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.tuples(_SETTING_ID, _SETTING_ID), min_size=1, max_size=5),
       data=st.data(),
       metadata=st.dictionaries(_KEY, st.one_of(
           st.integers(-10**6, 10**6), st.floats(allow_nan=False, allow_infinity=False),
           _VALUE), max_size=4))
def test_coincidence_table_round_trip(path, ids, data, metadata):
    counts = data.draw(st.lists(st.lists(_COUNT, min_size=4, max_size=4),
                                min_size=len(ids), max_size=len(ids)))
    table = measure.CoincidenceTable(ids, counts, metadata)
    measure.write_table(table, path)
    loaded = measure.read_table(path)
    assert np.array_equal(loaded.counts, table.counts)
    assert loaded.settings == ids
    assert loaded.metadata == {key: str(value) for key, value in metadata.items()}


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(_COUNT, min_size=16, max_size=16),
       metadata=st.dictionaries(_KEY, _VALUE, max_size=4),
       order=st.permutations(range(16)))
def test_tomo_counts_round_trip_any_row_order(path, counts, metadata, order):
    tomography.write_tomo_counts(path, counts, metadata)
    # split at '\n' only: splitlines() would also split inside a '\x85' value
    lines = path.read_text(encoding="utf-8").split("\n")
    head = len(metadata) + 1
    path.write_text("\n".join(lines[:head] + [lines[head + k] for k in order]) + "\n",
                    encoding="utf-8")
    loaded, loaded_metadata = tomography.read_tomo_counts(path)
    assert np.array_equal(loaded, counts)
    assert loaded_metadata == {key: str(value) for key, value in metadata.items()}


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=6, max_size=6))
def test_observables_round_trip(path, values):
    # the file `polarot observables --out` writes reads back both columns
    m, sigma = np.array(values[:3]), np.array(values[3:])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "read_table", lambda table_path: None)
        patch.setattr(cli, "estimate_observables", lambda table: (m, sigma))
        assert cli.main(["observables", "--table", "unread", "--out", str(path)]) == 0
    _, rows = read_labeled(path, cli._OBSERVABLES_HEADER, cli._OBSERVABLES, "observable", "")
    assert rows == np.stack((m, sigma), -1).tolist()
    assert np.array_equal(cli._read_observables(path), m)


TABLE_HEADER = "setting_a_id,setting_b_id,n_pp,n_pm,n_mp,n_mm\n"
TOMO_HEADER = "basis_label_a,basis_label_b,count\n"
OBS_HEADER = "observable,value,sigma\n"


def _tomo_rows(count):
    return "".join(f"{a},{b},{count if k == 0 else 1}\n"
                   for k, (a, b) in enumerate(tomography.BASIS_LABELS))


def _readers(bad):
    """(reader, file text) pairs with one `bad` numeric cell each."""
    return [
        (measure.read_table, TABLE_HEADER + f"Z,Z,1,{bad},1,1\n"),
        (tomography.read_tomo_counts, TOMO_HEADER + _tomo_rows(bad)),
        (cli._read_observables, OBS_HEADER + f"m_zz,{bad},0\nm_xz,0,0\nm_zx,0,0\n"),
        (cli._read_observables, OBS_HEADER + f"m_zz,0,0\nm_xz,0,{bad}\nm_zx,0,0\n"),
    ]


@pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_readers_reject_non_finite_cells(path, bad):
    for reader, text in _readers(bad):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            reader(path)


def test_readers_reject_wrong_header_and_ragged_rows(path):
    for reader, text in _readers("1"):
        path.write_text(text, encoding="utf-8")
        reader(path)  # the well-formed file reads
        header, _, body = text.partition("\n")
        for broken in ("wrong," + header + "\n" + body,     # wrong header
                       body,                                  # no header
                       header + "\n" + body + "1,2\n",        # short row
                       header + "\n" + body.replace("\n", ",7\n", 1)):  # long row
            path.write_text(broken, encoding="utf-8")
            with pytest.raises(ValueError):
                reader(path)


def test_observables_header_is_mandatory(path):
    path.write_text("m_zz,-1,0\nm_xz,0,0\nm_zx,0,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        cli._read_observables(path)


@pytest.mark.parametrize("text, expected", [
    ("-0.000000", "0.000000"),
    ("-0.000000,1.5,-0.000000", "0.000000,1.5,0.000000"),
    ("S = -0.000000 +- 0.000000", "S = 0.000000 +- 0.000000"),
    # other numbers keep their sign
    ("-0.000001,-10.000000,-0.0000001,-0.000000000", "-0.000001,-10.000000,-0.0000001,"
                                                     "-0.000000000")])
def test_unsigned_zeros_drops_only_the_sign_of_a_six_decimal_zero(text, expected):
    assert unsigned_zeros(text) == expected
