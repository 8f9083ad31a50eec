"""Each command reads exactly the config keys it runs.

A key that a run does not read exits 2 unless it holds its default, every
key that a run reads moves its output or its exit code (the physics
exceptions are named below), and the config hash of an accepted config
covers exactly the keys its run reads."""

import contextlib
import dataclasses
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarot import config
from polarot.cli import main

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

# each run: its command and the golden input it starts from
RUNS = {"simulate": ("simulate", "sim.ini"), "scan": ("scan", "scan.ini"),
        "theta_b sweep": ("sweep", "sweep_theta.ini"),
        "molarity_b sweep": ("sweep", "sweep_molarity.ini")}

STATE = [("state", "kind"), ("state", "ket_a"), ("state", "ket_b")]
ARM_B = [("arm_b", "angle_deg"), ("arm_b", "molarity"), ("arm_b", "slope_deg_per_molar")]
PAIRS = [("settings", "pairs")]
SWEEP = [("sweep", key) for key in ("variable", "values", "start", "stop", "count")]
# the keys each run does not read, as the README's table lists them; a
# molarity sweep reads the slope of [arm_b] but not its molarity
NOT_READ = {
    "simulate": SWEEP,
    "scan": STATE + ARM_B + PAIRS + SWEEP,
    "theta_b sweep": STATE + ARM_B + PAIRS,
    "molarity_b sweep": PAIRS + [("arm_b", "molarity")],
}
# keys a molarity sweep cannot set to anything but their defaults, since it
# runs neither what they need: kets need kind = separable, angle_deg an angle arm
CANNOT_SET = {"molarity_b sweep": [("state", "ket_a"), ("state", "ket_b"),
                                   ("arm_b", "angle_deg")]}
ALL_KEYS = [(section, key) for section, keys in config._KEYS.items() for key in keys]


def golden_ini(run):
    return config._read_ini((GOLDEN_INPUTS / RUNS[run][1]).read_text(encoding="utf-8"))


def with_key(ini, section, key, value):
    """A copy of the {section: {key: value}} config `ini` with key = value,
    plus the keys it needs to load: kets need kind = separable, an arm's
    angle_deg excludes its solution keys and a solution needs a molarity,
    and a [sweep] needs a variable and values or a start/stop/count range."""
    ini = {name: dict(keys) for name, keys in ini.items()}
    sec = ini.setdefault(section, {})
    if key in ("ket_a", "ket_b"):
        sec["kind"] = "separable"
    if key == "angle_deg":
        sec.pop("molarity", None)
        sec.pop("slope_deg_per_molar", None)
    if key in ("molarity", "slope_deg_per_molar"):
        sec.pop("angle_deg", None)
        sec.setdefault("molarity", "2")
    if section == "sweep":
        sec.setdefault("variable", "theta_b")
        if key == "values":
            for bound in ("start", "stop", "count"):
                sec.pop(bound, None)
        elif key in ("start", "stop", "count"):
            sec.pop("values", None)
            for bound, default in (("start", "0"), ("stop", "4"), ("count", "5")):
                sec.setdefault(bound, default)
        elif "start" not in sec:
            sec.setdefault("values", "0, 1, 2")
    sec[key] = value
    return ini


def ini_text(ini):
    """INI text of the config `ini`, without its empty sections."""
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                           for key, value in keys.items())
                   for name, keys in ini.items() if keys)


def run_ini(run, ini, workdir, exact=False):
    """Run `run` on the config `ini` in workdir; returns the exit code,
    stdout, stderr and the data rows of the output file (None if none)."""
    command = RUNS[run][0]
    path, out = workdir / "run.ini", workdir / "out.csv"
    path.write_text(ini_text(ini), encoding="utf-8")
    out.unlink(missing_ok=True)
    argv = [command, "--config", str(path), *(["--exact"] if exact else [])]
    if command != "scan":
        argv += ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    rows = None
    if out.exists():
        rows = [line for line in out.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#")]
    return code, stdout.getvalue(), stderr.getvalue(), rows


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("reads")


# a value of each key that its runs do not read, which the parent accepted
UNREAD_VALUE = {("state", "kind"): "psi_plus", ("state", "ket_a"): "D",
                ("state", "ket_b"): "R", ("arm_b", "angle_deg"): "10",
                ("arm_b", "molarity"): "1.5", ("arm_b", "slope_deg_per_molar"): "3",
                ("settings", "pairs"): "Y/Y", ("sweep", "variable"): "theta_b",
                ("sweep", "values"): "0, 10, 20", ("sweep", "start"): "0",
                ("sweep", "stop"): "20", ("sweep", "count"): "3"}


@pytest.mark.parametrize("run, section, key", [
    (run, section, key) for run, keys in NOT_READ.items() for section, key in keys])
def test_a_key_the_run_does_not_read_exits_2(workdir, run, section, key):
    # each config ran to exit 0, its key without effect on any output
    ini = with_key(golden_ini(run), section, key, UNREAD_VALUE[section, key])
    code, stdout, stderr, rows = run_ini(run, ini, workdir)
    assert (code, stdout, rows) == (2, "", None)
    if run == "molarity_b sweep" and section == "arm_b":
        assert stderr.startswith("error: molarity_b sweep needs [arm_b] molarity = 0: ")
    else:
        # a [sweep] section always sets its variable, so that is the key named
        named = "variable" if section == "sweep" else key
        assert stderr.startswith(f"error: {run} does not read [{section}] {named}: ")


def test_scan_names_the_state_it_probes(workdir):
    _, _, stderr, _ = run_ini("scan", with_key(golden_ini("scan"), "state", "kind",
                                               "phi_plus"), workdir)
    assert stderr == "error: scan does not read [state] kind: it always probes psi_minus\n"


@pytest.mark.parametrize("run, text", [
    ("scan", "[arm_b]\nangle_deg = -0.0\n"),
    ("theta_b sweep", "[arm_b]\nangle_deg = -0\n"),
    ("molarity_b sweep", "[arm_b]\nmolarity = -0.0\n")])
def test_negative_zero_is_not_the_default(run, text):
    # repr tells them apart, as config_hash does: the two hash differently
    base = config.loads_config(text.replace("-", "") + "[statistics]\nseed = 1\n")
    cfg = config.loads_config(text + "[statistics]\nseed = 1\n")
    assert config.config_hash(base) != config.config_hash(cfg)
    config.check_reads(base, run)
    with pytest.raises(ValueError, match=r"\[arm_b\] (angle_deg|molarity)"):
        config.check_reads(cfg, run)


def test_the_golden_configs_hold_unread_keys_at_their_defaults():
    for run, (_, name) in RUNS.items():
        config.check_reads(config.load_config(GOLDEN_INPUTS / name), run)


# a reference value that every run reading the key accepts, and other values
VALUES = {
    "kind": ("psi_minus", ["psi_plus", "phi_plus", "phi_minus", "separable"]),
    "ket_a": ("H", ["V", "D", "R"]),
    "ket_b": ("V", ["H", "A", "L"]),
    "visibility": ("0.9", ["0.0", "0.5", "1.0"]),
    "angle_deg": ("20", ["-60", "-5", "35", "70"]),
    "molarity": ("0", ["0.5", "2", "3.7"]),
    "slope_deg_per_molar": ("7.01", ["3", "5.5", "9"]),
    "transmission": ("0.75", ["0.3", "1.0"]),
    "pbs_a_deg": ("-4.75", ["-10", "0", "12"]),
    "pbs_b_deg": ("4.09", ["-10", "0", "12"]),
    "hwp_deg": ("5.47", ["-10", "0", "12"]),
    "pair_flux": ("100000", ["20000", "500000"]),
    "duration": ("1.0", ["0.5", "2.0"]),
    "seed": ("1", ["2", "77", "123456"]),
    "pairs": ("Z/Z, X/Z, Z/X", ["Y/Y", "Z/Z", "lin:10/Z, X/X"]),
    "values": ("0, 1, 2, 3, 4", ["0, 1.5, 3", "0.5, 2, 4, 6"]),
    "start": ("0", ["1", "2"]),
    "stop": ("4", ["3", "6"]),
    "count": ("5", ["3", "9"]),
}
DETECTION = [("arm_a", "transmission"), ("arm_b", "transmission"),
             ("statistics", "pair_flux"), ("statistics", "duration")]
OFFSETS = [("offsets", key) for key in ("pbs_a_deg", "pbs_b_deg", "hwp_deg")]
EXACT_SEED = {("statistics", "seed"): "exact runs draw no counts"}
# read keys that physics leaves without effect, by (run, exact), with why
UNMOVED = {
    **{(run, True): EXACT_SEED for run in RUNS},
    ("scan", True): {
        **EXACT_SEED,
        **{key: "an exact scan finds the arm-A angle in the analyzer frame and "
                "removes the offsets it put there" for key in OFFSETS},
        **{key: "exact observables are ratios of mean counts, which the detection "
                "fields scale alike" for key in DETECTION},
        ("noise", "visibility"): "the visibility scales the exact grid phasor but "
                                 "not its phase; only the significance rule of "
                                 "measure._branch_rotations reads its size"},
}
READ = [(run, section, key, exact) for run in RUNS for exact in (False, True)
        for section, key in ALL_KEYS
        if (section, key) not in NOT_READ[run] + CANNOT_SET.get(run, [])]


def _reference(run, key):
    return run.split()[0] if key == "variable" else VALUES[key][0]


def _alternatives(run, key):
    if key == "variable":
        return [v for v in ("theta_b", "molarity_b") if v != _reference(run, key)]
    return VALUES[key][1]


@pytest.mark.parametrize("run, section, key, exact", [
    pytest.param(run, section, key, exact,
                 id=f"{run}-{section}.{key}-{'exact' if exact else 'sampled'}")
    for run, section, key, exact in READ])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_a_read_key_moves_the_output_or_the_exit_code(workdir, run, section, key, exact,
                                                      data):
    value = data.draw(st.sampled_from(_alternatives(run, key)))
    base = run_ini(run, with_key(golden_ini(run), section, key, _reference(run, key)),
                   workdir, exact)
    assert base[0] == 0, base[2]
    moved = run_ini(run, with_key(golden_ini(run), section, key, value), workdir, exact)
    same = (moved[0], moved[1], moved[3]) == (base[0], base[1], base[3])
    if (section, key) in UNMOVED.get((run, exact), {}):
        # no value changes what the run prints, though one may fail a check
        assert moved[0] != 0 or same, (value, moved)
    else:
        assert not same, (value, moved)


# accepted spellings of the defaults of unread keys (None: the key is absent)
UNREAD_SPELLINGS = {
    ("state", "kind"): [None, "psi_minus"],
    ("arm_b", "angle_deg"): [None, "0", "0.0", "0e0"],
    ("settings", "pairs"): [None, "Z/Z, X/Z, Z/X", "Z/Z,X/Z,Z/X"],
}
# values of read keys, some of them spellings of the same value
READ_SPELLINGS = {
    ("state", "kind"): ["psi_minus", "psi_plus"],
    ("noise", "visibility"): ["0.9", "0.90", "1", "1.0"],
    ("arm_a", "angle_deg"): ["20", "20.0", "15"],
    ("arm_b", "slope_deg_per_molar"): ["7.01", "7.010", "5"],
    ("offsets", "pbs_a_deg"): ["-4.75", "-4.750", "0"],
    ("statistics", "seed"): ["1", "01", "2"],
    ("settings", "pairs"): ["Z/Z, X/Z, Z/X", "Z/Z,X/Z,Z/X", "Y/Y", "lin:22.5/wp:10:20",
                            "lin:202.5/wp:10:20", "lin:22.5/wp:190:-160"],
    ("sweep", "values"): ["0, 1, 2", "0,1,2", "0, 1.5, 3"],
}


def leaf_fields(value, prefix=""):
    """(dotted name, repr) of every field of a config value, nested
    dataclasses (the arms, the detection model) field by field."""
    for f in dataclasses.fields(value):
        item = getattr(value, f.name)
        if dataclasses.is_dataclass(item):
            yield from leaf_fields(item, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", repr(item)


@st.composite
def _accepted_config(draw, run):
    """The golden config of `run` with read keys drawn from READ_SPELLINGS
    and unread keys from UNREAD_SPELLINGS."""
    ini = golden_ini(run)
    for section, key in ALL_KEYS:
        spellings = (UNREAD_SPELLINGS if (section, key) in NOT_READ[run]
                     else READ_SPELLINGS).get((section, key))
        if spellings is None or (section, key) in CANNOT_SET.get(run, []):
            continue
        value = draw(st.sampled_from(spellings))
        if value is None:
            ini.get(section, {}).pop(key, None)
        else:
            ini = with_key(ini, section, key, value)
    return config.loads_config(ini_text(ini))


@pytest.mark.parametrize("run", sorted(RUNS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_accepted_configs_hash_equal_iff_their_read_keys_are_equal(run, data):
    first, second = (data.draw(_accepted_config(run)) for _ in range(2))
    for cfg in (first, second):
        config.check_reads(cfg, run)

    # the fields the run does not read, as config.ACCEPTS declares them
    unread = {name for fields, _ in config.ACCEPTS[run].get("unread", ()) for name in fields}

    def read(cfg):
        return [item for item in leaf_fields(cfg) if item[0] not in unread]

    assert ((config.config_hash(first) == config.config_hash(second))
            == (read(first) == read(second)))
