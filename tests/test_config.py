"""The one-pass INI reader of polarot.config and the identity of the configs."""

import configparser
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import config_corpus
from polarot import config, measure
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
    ("scan.ini", "c6b031f613b2b862"),
    ("sim.ini", "4591f6b173e847b5"),
    ("sweep_molarity.ini", "89fc3edd37b1bc5e"),
    ("sweep_theta.ini", "560962e0a49beefd"),
])
def test_golden_config_hash(name, expected):
    assert config.config_hash(config.load_config(GOLDEN_INPUTS / name)) == expected


@pytest.mark.parametrize("pair", ["lin:22.5/wp:10:20", "lin:22.500/wp:10:20",
                                  "lin:202.5/wp:10:20", "lin:22.5/wp:190:20",
                                  "lin:22.5/wp:100:20"])
def test_one_experiment_has_one_hash_and_one_table(tmp_path, capsys, pair):
    # each spelling of sim.ini's last analyzer pair hashed differently
    text = (GOLDEN_INPUTS / "sim.ini").read_text(encoding="utf-8")
    assert text.count("lin:22.5/wp:10:20") == 1
    path = tmp_path / "sim.ini"
    path.write_text(text.replace("lin:22.5/wp:10:20", pair))
    assert config.config_hash(config.load_config(path)) == "4591f6b173e847b5"
    assert main(["simulate", "--config", str(path), "--exact",
                 "--out", str(tmp_path / "exact.csv")]) == 0
    expected = (GOLDEN_INPUTS.parent / "expected" / "simulate_exact" / "exact.csv")
    assert (tmp_path / "exact.csv").read_bytes() == expected.read_bytes()
    capsys.readouterr()


def test_a_config_built_in_code_hashes_like_the_same_config_loaded():
    # ExperimentConfig stored the ids as typed, so a config built in code
    # hashed 84dfe2b4... and the same config loaded d7906eee...
    built = config.ExperimentConfig(setting_pairs=(("lin:202.5", "Z"),))
    loaded = config.loads_config("[statistics]\nseed = 0\n[settings]\npairs = lin:202.5/Z\n")
    assert built == loaded
    assert built.setting_pairs == (("lin:22.500000", "Z"),)
    assert config.config_hash(built) == config.config_hash(loaded) == "8c39adef30023c52"
    # the named pairs are canonical already, and are kept as they are
    assert config.ExperimentConfig().setting_pairs is measure.NAMED_PAIRS
    with pytest.raises(ValueError, match="^\\[settings\\] pairs: cannot parse analyzer "
                                         "setting id 'W'"):
        config.ExperimentConfig(setting_pairs=(("W", "Z"),))


def test_a_config_built_with_a_lower_case_ket_hashes_like_the_same_config_loaded():
    # ExperimentConfig stored ket_a = "h" as typed, so a config built in code
    # hashed 5d476581... and the same config loaded, which stored H, f9371369...
    built = config.ExperimentConfig(state_kind="separable", ket_a="h")
    loaded = config.loads_config("[statistics]\nseed = 0\n"
                                 "[state]\nkind = separable\nket_a = h\n")
    assert built == loaded
    assert built.ket_a == "H"
    assert config.config_hash(built) == config.config_hash(loaded) == "10e099590dbf91e4"
    with pytest.raises(ValueError, match="^\\[state\\] ket_b: unknown polarization "
                                         "label 'Q'"):
        config.ExperimentConfig(ket_b="q")


@pytest.mark.parametrize("field, value, same", [
    ("visibility", 1, 1.0),
    ("visibility", np.float64(0.9), 0.9),
    ("seed", np.int64(3), 3),
    ("sweep_values", [0.0, 1.5], (0.0, 1.5)),
    ("arm_a", config.ArmConfig(molarity=np.float32(2.0), slope_deg_per_molar=5),
     config.ArmConfig(molarity=2.0, slope_deg_per_molar=5.0)),
    ("detection", measure.Detection(100_000, 1, np.float64(0.5)),
     measure.Detection(1e5, 1.0, 0.5)),
], ids=["int-visibility", "numpy-visibility", "numpy-seed", "list-sweep-values",
        "arm-numbers", "detection-numbers"])
def test_one_value_has_one_hash_whatever_type_it_was_built_from(field, value, same):
    # the first four pairs hashed apart, since repr(cfg) showed each number in
    # the type it was built from (1 against 1.0, np.float64(0.9) against 0.9)
    extra = {"sweep_variable": "theta_b"} if field == "sweep_values" else {}
    built, typed = (config.ExperimentConfig(**{field: v}, **extra) for v in (value, same))
    assert built == typed and repr(built) == repr(typed)
    assert config.config_hash(built) == config.config_hash(typed)
    assert type(getattr(built, field)) is type(same)


@pytest.mark.parametrize("kind", ["psi_plus", "psi_minus", "phi_plus", "phi_minus"])
@pytest.mark.parametrize("key, value", [("ket_a", "D"), ("ket_b", "A")])
def test_kets_on_a_bell_source_do_not_build(kind, key, value):
    # they built: ExperimentConfig(ket_a="D") hashed 28074579... against the
    # default's 05a6595d..., though no run reads the kets of a Bell source;
    # the loader rejected the same config with the same message
    message = (f"^section \\[state\\] must not set {key} with kind = {kind} "
               f"\\(only a separable source has kets\\)$")
    with pytest.raises(ValueError, match=message):
        config.ExperimentConfig(state_kind=kind, **{key: value})
    with pytest.raises(ValueError, match=message):
        config.loads_config(f"[statistics]\nseed = 0\n[state]\nkind = {kind}\n"
                            f"{key} = {value}\n")
    # the default kets, in either case, build and hash as the default; a bad
    # label is named before the kind
    assert config.config_hash(config.ExperimentConfig(ket_a="h", ket_b="v")) \
        == config.config_hash(config.ExperimentConfig()) == "9f1df3145daee054"
    with pytest.raises(ValueError, match="^\\[state\\] ket_b: unknown polarization "
                                         "label 'Q'"):
        config.ExperimentConfig(state_kind=kind, ket_a="D", ket_b="q")


def test_a_negative_seed_does_not_build():
    # it built: its exact sweep wrote "# seed=-1", and its sampled sweep
    # failed with numpy's "expected non-negative integer", naming no key
    with pytest.raises(ValueError, match="^\\[statistics\\] seed must be >= 0, got -1$"):
        config.ExperimentConfig(seed=-1)
    assert config.ExperimentConfig(seed=0).seed == 0
    # a seed is an integer, not a number that rounds to one: seed=3.0 built
    # and hashed apart from seed=3
    with pytest.raises(TypeError):
        config.ExperimentConfig(seed=3.0)


def test_a_sweep_above_the_point_limit_does_not_build():
    # the limit held for loaded configs only
    values = (1.5,) * (config.MAX_GRID_POINTS + 1)
    built = config.ExperimentConfig(sweep_variable="theta_b", sweep_values=values[1:])
    assert len(built.sweep_values) == config.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="^\\[sweep\\] values must hold at most "
                                         "100,000 entries$"):
        config.ExperimentConfig(sweep_variable="theta_b", sweep_values=values)


@pytest.mark.parametrize("fields, message", [
    (lambda: {"pbs_a": math.nan}, r"\[offsets\] pbs_a_deg must be finite, got nan"),
    (lambda: {"hwp": math.inf}, r"\[offsets\] hwp_deg must be finite, got inf"),
    (lambda: {"arm_a": config.ArmConfig(angle=math.inf)}, r"arm rotation is not finite: inf"),
    (lambda: {"sweep_variable": "theta_b", "sweep_values": (math.nan, 1.0)},
     r"\[sweep\] values must be finite, got nan"),
    (lambda: {"sweep_variable": "theta_b", "sweep_values": (math.inf,)},
     r"\[sweep\] values must be finite, got inf"),
    (lambda: {"sweep_variable": "molarity_b", "sweep_values": (math.nan,)},
     r"\[sweep\] values must be finite, got nan"),
], ids=["pbs_a-nan", "hwp-inf", "arm_a-angle-inf", "theta_b-nan", "theta_b-inf",
        "molarity_b-nan"])
def test_non_finite_angles_offsets_and_sweep_values_do_not_build(fields, message):
    # no config file loads them, but each built and hashed, then failed mid-run
    # with "rotation angles must be finite", naming no field
    with pytest.raises(ValueError, match=f"^{message}$"):
        config.ExperimentConfig(**fields())


def test_sweep_values_without_a_variable_do_not_build():
    # no run reads sweep values without a variable and no config file can
    # produce them, so they must not make a config that hashes apart
    with pytest.raises(ValueError, match="^\\[sweep\\] section needs a 'variable' key$"):
        config.ExperimentConfig(sweep_values=(1.0, 2.0))
    assert config.ExperimentConfig(sweep_values=()) == config.ExperimentConfig()


def test_a_sweep_section_without_variable_or_values_names_the_values():
    # the values or range are parsed first, then the config checks the variable
    text = (GOLDEN_INPUTS / "sweep_theta.ini").read_text(encoding="utf-8")
    head = text[:text.index("[sweep]")] + "[sweep]\n"
    with pytest.raises(ValueError, match="^\\[sweep\\] needs either 'values' or "
                                         "'start/stop/count'$"):
        config.loads_config(head)
    with pytest.raises(ValueError, match="^\\[sweep\\] section needs a 'variable' key$"):
        config.loads_config(head + "values = 1, 2\n")


# another accepted value of each field of ExperimentConfig, ArmConfig and
# Detection, by name; a field added later fails the walk below until it is listed
OTHER_VALUE = {
    "state_kind": "psi_plus", "ket_a": "D", "ket_b": "A", "visibility": 0.5,
    "angle": 0.1, "molarity": 2.0, "slope_deg_per_molar": 5.0,
    "pbs_a": 0.1, "pbs_b": 0.1, "hwp": 0.1, "pair_flux": 2e5, "duration": 2.0,
    "transmission_a": 0.5, "transmission_b": 0.5,
    "seed": 1, "setting_pairs": (("Y", "Y"),), "sweep_variable": "molarity_b",
    "sweep_values": (0.0, 2.0),
}
# the angle-arm fields and the solution-arm fields are each set on one base
_SOLUTION = config.ArmConfig(molarity=1.0)
HASH_BASES = (config.ExperimentConfig(sweep_variable="theta_b", sweep_values=(0.0, 1.0)),
              config.ExperimentConfig(state_kind="separable", arm_a=_SOLUTION,
                                      arm_b=_SOLUTION))


def field_paths(value, prefix=()):
    """The path of every field of a config value, nested dataclasses (the
    arms, the detection model) field by field."""
    for f in dataclasses.fields(value):
        item = getattr(value, f.name)
        if dataclasses.is_dataclass(item):
            yield from field_paths(item, prefix + (f.name,))
        else:
            yield prefix + (f.name,)


def replaced(value, path, new):
    head, *rest = path
    return dataclasses.replace(
        value, **{head: replaced(getattr(value, head), rest, new) if rest else new})


@pytest.mark.parametrize("path", list(field_paths(HASH_BASES[0])), ids=".".join)
def test_config_hash_follows_every_field(path):
    changed = 0
    for base in HASH_BASES:
        try:
            other = replaced(base, path, OTHER_VALUE[path[-1]])
        except ValueError:  # the field is not one this base may set
            continue
        assert config.config_hash(other) != config.config_hash(base)
        changed += 1
    assert changed, f"no base accepts {'.'.join(path)} = {OTHER_VALUE[path[-1]]!r}"


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


def test_an_empty_config_is_the_default_config():
    # loads_config states no default of its own: each fallback is the field's
    cfg = config.loads_config("[statistics]\nseed = 0\n")
    assert cfg == config.ExperimentConfig()
    assert config.config_hash(cfg) == config.config_hash(config.ExperimentConfig())


def test_out_of_range_visibility_is_rejected_at_load():
    # it loaded, and every run failed later, in channels._apply_noise
    with pytest.raises(ValueError, match=r"^\[noise\] visibility must be in \[0, 1\], "
                                         r"got 1\.2$"):
        config.loads_config("[noise]\nvisibility = 1.2\n[statistics]\nseed = 0\n")


def test_every_key_sets_a_field_and_every_field_has_a_key():
    # _KEYS is the loader's one statement of what each key sets: a key that
    # names a renamed field, or a field no key sets, fails here
    paths = set()
    for section, keys in config._KEYS.items():
        for key, (path, kind) in keys.items():
            assert kind in (str, float, int), (section, key)
            paths.add(path)
    grid = {path for path in paths if path.startswith("grid.")}
    assert grid == {"grid.start", "grid.stop", "grid.count"}
    assert paths - grid == {".".join(path) for path in field_paths(config.ExperimentConfig())}


@pytest.mark.parametrize("text, message", [
    ("", "[statistics] section with an explicit seed is mandatory"),
    ("[noise]\nvisibility = abc\n", "[statistics] section with an explicit seed is mandatory"),
    ("[statistics]\nseed = x\n[sweep]\nvariable = theta_b\nstart = 0\ncount = 3\n",
     "[sweep] range is missing 'stop'")],
    ids=["empty", "no-seed-and-a-bad-value", "bad-seed-and-a-range-without-stop"])
def test_key_faults_are_named_before_value_faults(text, message):
    # the loader named the fault of the first section it read a value from
    with pytest.raises(ValueError) as info:
        config.loads_config(text)
    assert str(info.value) == message


# the sha256 of `python tests/config_corpus.py`, taken when the loader last
# changed on purpose
CORPUS_SHA256 = "57e33017750dad3c1677a132a255a031c4a96b8ccfc9616c23077962a00f0084"


def test_the_config_corpus_loads_as_pinned():
    lines = config_corpus.listing()
    assert len(lines) >= 5000
    escaped = [line for line in lines
               if not line.split("\t")[1].startswith(("ok ", "ValueError: "))]
    assert escaped == []
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == CORPUS_SHA256, (
        "the loader answers some edited config differently: diff the output of "
        "`python tests/config_corpus.py` in this checkout and in the last one that "
        "passed, and pin the new digest only if every changed line is meant")
