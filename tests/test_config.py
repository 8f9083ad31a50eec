"""The one-pass INI reader of polarot.config and the identity of the configs."""

import configparser
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarot import config
from polarot.cli import main
from polarot.config import _read_ini

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

_WORD = "abcXYZ_019"
_NAME = st.text(_WORD + ".-", min_size=1, max_size=8)
_KEY = st.text(_WORD + " .-", min_size=1, max_size=8).map(str.strip).filter(bool)
# value text holds no comment prefix, so a comment starts only where one is put
_VALUE = st.text(_WORD + " .,/=:%()[]-", max_size=12)
_CONTINUATION = _VALUE.filter(str.strip)
_COMMENT = st.tuples(st.sampled_from(";#"), st.text(max_size=10).filter(
    lambda s: "\n" not in s)).map("".join)
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_INDENT = st.sampled_from([" ", "  ", "    ", "\t"])


@st.composite
def _ini_text(draw):
    """INI text with comment lines, inline comments, both delimiters,
    mixed-case keys, blank lines and indented continuation lines."""
    lines = []

    def filler():
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(["", "   "]))
                         if draw(st.booleans())
                         else draw(st.sampled_from(["", "  "])) + draw(_COMMENT))

    def inline():
        return draw(_SPACE.filter(bool)) + draw(_COMMENT) if draw(st.booleans()) else ""

    filler()
    names = draw(st.lists(_NAME, unique=True, max_size=4))
    for name in names:
        lines.append(f"[{name}]" + inline())
        filler()
        keys = draw(st.lists(_KEY, unique_by=str.lower, max_size=4))
        for key in keys:
            delimiter = draw(_SPACE) + draw(st.sampled_from("=:")) + draw(_SPACE)
            lines.append(key + delimiter + draw(_VALUE) + inline())
            for _ in range(draw(st.integers(0, 2))):
                lines.append(draw(_INDENT) + draw(_CONTINUATION) + inline())
            filler()
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=_ini_text())
def test_reader_matches_configparser(text):
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    parser.read_string(text)
    expected = {name: dict(parser[name]) for name in parser.sections()}
    assert _read_ini(text) == expected


def test_reader_keeps_percent_and_case_of_section_names():
    text = "[Noise]\nVisibility = 90% ; a comment\n[noise]\nnote: a=b;c # d\n"
    assert _read_ini(text) == {"Noise": {"visibility": "90%"},
                               "noise": {"note": "a=b;c"}}


@pytest.mark.parametrize("text, line, why", [
    ("[state]\nkind = psi_minus\n\n[state]\n", 4, "duplicate section [state]"),
    ("[noise]\nvisibility = 1\n; comment\nVisibility = 0.5\n", 4,
     "duplicate key 'visibility'"),
    ("; header comment\n\nseed = 1\n[statistics]\n", 3, "before any [section]"),
    ("[statistics]\nseed = 1\npair_flux 100\n", 3, "expected 'key = value'"),
], ids=["duplicate-section", "duplicate-key", "key-before-section", "no-delimiter"])
def test_malformed_text_names_its_line(tmp_path, capsys, text, line, why):
    with pytest.raises(ValueError, match=rf"^malformed config: line {line}: ") as err:
        _read_ini(text)
    assert why in str(err.value)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["simulate", "--exact", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"malformed config: line {line}: " in captured.err


@pytest.mark.parametrize("name, expected", [
    ("scan.ini", "911977225f533fc9"),
    ("sim.ini", "c01c76049a1c0d5c"),
    ("sweep_molarity.ini", "5d6e179a273c91ef"),
    ("sweep_theta.ini", "f77cf5aa55c35dad"),
])
def test_golden_config_hash(name, expected):
    assert config.config_hash(config.load_config(GOLDEN_INPUTS / name)) == expected


def test_wrapped_sweep_values_load_as_one_line():
    text = (GOLDEN_INPUTS / "sweep_theta.ini").read_text(encoding="utf-8")
    one_line = "values = -30, -10, 0, 15, 40"
    assert one_line in text
    wrapped = text.replace(one_line, "values =\n    -30, -10,\n    0, 15,\n    40")
    assert config.loads_config(wrapped) == config.loads_config(text)
    assert config.loads_config(wrapped).sweep_values == (-30.0, -10.0, 0.0, 15.0, 40.0)


@pytest.mark.parametrize("key", ["count", "values"])
def test_sweep_point_limit_is_inclusive(key):
    # a sweep of exactly MAX_GRID_POINTS loads; one point more is named
    limit = config.MAX_GRID_POINTS
    text = (GOLDEN_INPUTS / "sweep_theta.ini").read_text(encoding="utf-8")
    head = text[:text.index("[sweep]")] + "[sweep]\nvariable = theta_b\n"

    def sweep(n):
        body = (f"start = -40\nstop = 40\ncount = {n}" if key == "count"
                else "values = " + ", ".join(["1.5"] * n))
        return config.loads_config(head + body)

    assert len(sweep(limit).sweep_values) == limit
    with pytest.raises(ValueError, match=rf"\[sweep\] {key} must .*at most 100,000"):
        sweep(limit + 1)
