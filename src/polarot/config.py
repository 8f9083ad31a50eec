"""Declarative experiment configuration.

Config files are INI text, read in one pass by `_read_ini`, with named
sections mirroring the run description: [state], [noise], [arm_a], [arm_b],
[offsets], [statistics], [settings], [sweep]; any other section or key is
rejected. Angles appear in degrees in files (keys carry a _deg suffix) and
are converted to radians on load. Calibration constants default to the
shipped values below and are never hard-coded in analysis logic.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from operator import attrgetter, index

from .measure import NAMED_PAIRS, Detection, parse_setting
from .metrology import MAX_TRIALS
from .states import BELL_KINDS, ket

__all__ = [
    "ArmConfig", "ExperimentConfig", "load_config", "loads_config",
    "config_hash", "check_reads", "ACCEPTS", "DEFAULT_SLOPE_DEG_PER_MOLAR",
    "DEFAULT_PBS_A_DEG", "DEFAULT_PBS_B_DEG", "DEFAULT_HWP_DEG", "DEFAULT_TRANSMISSION",
]

# shipped calibration defaults
DEFAULT_SLOPE_DEG_PER_MOLAR = 7.01
DEFAULT_PBS_A_DEG = -4.75
DEFAULT_PBS_B_DEG = 4.09
DEFAULT_HWP_DEG = 5.47
DEFAULT_TRANSMISSION = 0.75

SWEEP_VARIABLES = ("molarity_b", "theta_b")
# the most points a sweep may hold: 100,000 points peak near 190 MiB (1.5 KiB each)
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class ArmConfig:
    """One arm of the experiment: either a fixed rotation angle (radians)
    or a chiral solution, whose rotation in degrees follows the linear
    calibration slope_deg_per_molar * molarity."""

    angle: float | None = None
    molarity: float | None = None
    slope_deg_per_molar: float = DEFAULT_SLOPE_DEG_PER_MOLAR

    def __post_init__(self):
        for name in ("angle", "molarity", "slope_deg_per_molar"):  # as floats, see config_hash
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, float(value))
        if (self.angle is None) == (self.molarity is None):
            raise ValueError("an arm needs exactly one of a fixed angle or a solution")
        if self.angle is not None and self.slope_deg_per_molar != DEFAULT_SLOPE_DEG_PER_MOLAR:
            raise ValueError("an angle arm must not set slope_deg_per_molar "
                             "(the slope calibrates a solution arm)")
        if self.molarity is not None and self.molarity < 0.0:
            raise ValueError(f"molarity must be nonnegative, got {self.molarity}")
        if not math.isfinite(self.theta()):
            raise ValueError(f"arm rotation is not finite: {self.theta()!r}")

    def theta(self) -> float:
        """The physical rotation (radians); analyzer offsets are not part of it."""
        if self.angle is not None:
            return self.angle
        return math.radians(self.slope_deg_per_molar * self.molarity)


@dataclass(frozen=True)
class ExperimentConfig:
    state_kind: str = "psi_minus"
    ket_a: str = "H"
    ket_b: str = "V"
    visibility: float = 1.0
    arm_a: ArmConfig = field(default_factory=lambda: ArmConfig(angle=0.0))
    arm_b: ArmConfig = field(default_factory=lambda: ArmConfig(angle=0.0))
    pbs_a: float = math.radians(DEFAULT_PBS_A_DEG)
    pbs_b: float = math.radians(DEFAULT_PBS_B_DEG)
    hwp: float = math.radians(DEFAULT_HWP_DEG)
    detection: Detection = Detection(1e5, 1.0, DEFAULT_TRANSMISSION,
                                     DEFAULT_TRANSMISSION)
    seed: int = 0
    setting_pairs: tuple = NAMED_PAIRS
    sweep_variable: str | None = None
    sweep_values: tuple = ()

    def __post_init__(self):
        # one type per field, so that equal values repr and hash alike: 1 and
        # np.float64(1.0) are 1.0, np.int64(3) is 3, a list of values a tuple
        for key in ("visibility", "pbs_a", "pbs_b", "hwp"):
            object.__setattr__(self, key, float(getattr(self, key)))
        object.__setattr__(self, "seed", index(self.seed))
        object.__setattr__(self, "sweep_values", tuple(map(float, self.sweep_values)))
        if self.setting_pairs != NAMED_PAIRS:  # canonical, and built by every sweep and scan
            try:  # the canonical ids, so that one experiment is one config value
                object.__setattr__(self, "setting_pairs", tuple(
                    (parse_setting(a)[0], parse_setting(b)[0]) for a, b in self.setting_pairs))
            except ValueError as err:
                raise ValueError(f"[settings] pairs: {err}") from None
        if self.state_kind not in BELL_KINDS + ("separable",):
            raise ValueError(f"unknown state kind {self.state_kind!r}")
        for key in ("ket_a", "ket_b"):  # upper-case, so that one source is one value
            object.__setattr__(self, key, getattr(self, key).upper())
            try:
                ket(getattr(self, key))
            except ValueError as err:
                raise ValueError(f"[state] {key}: {err}") from None
        for key, default in (("ket_a", "H"), ("ket_b", "V")):  # unread kets move no hash
            if getattr(self, key) != default and self.state_kind != "separable":
                raise ValueError(f"section [state] must not set {key} with kind = "
                                 f"{self.state_kind} (only a separable source has kets)")
        if self.seed < 0:
            raise ValueError(f"[statistics] seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"[noise] visibility must be in [0, 1], got {self.visibility}")
        for key in ("pbs_a", "pbs_b", "hwp"):  # as the loader words it
            if not math.isfinite(value := getattr(self, key)):
                raise ValueError(f"[offsets] {key}_deg must be finite, got {value!r}")
        if self.sweep_values and self.sweep_variable is None:
            raise ValueError("[sweep] section needs a 'variable' key")
        if self.sweep_variable is not None:
            if self.sweep_variable not in SWEEP_VARIABLES:
                raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}, "
                                 f"got {self.sweep_variable!r}")
            if not self.sweep_values:
                raise ValueError("sweep requested but no sweep values given")
            if len(self.sweep_values) > MAX_GRID_POINTS:
                raise ValueError(f"[sweep] values must hold at most {MAX_GRID_POINTS:,} "
                                 f"entries")
            for value in self.sweep_values:
                if not math.isfinite(value):
                    raise ValueError(f"[sweep] values must be finite, got {value!r}")
            if self.sweep_variable == "molarity_b" and min(self.sweep_values) < 0:
                raise ValueError(f"[sweep] values: negative molarity {min(self.sweep_values)}")
            slope, top = self.arm_b.slope_deg_per_molar, max(self.sweep_values)
            if self.sweep_variable == "molarity_b" and not math.isfinite(slope * top):
                raise ValueError(f"[sweep] values: molarity {top:g} times [arm_b] "
                                 f"slope_deg_per_molar {slope:g} is not a finite rotation")


def config_hash(cfg: ExperimentConfig) -> str:
    """The provenance hash of a config value: the first 16 hex digits of the
    sha256 of its repr, which holds every field, each value by repr. The
    config values store every number as a float or an int and the sweep
    values as a tuple, so equal values hash alike whatever type they were
    built from."""
    return hashlib.sha256(repr(cfg).encode("utf-8")).hexdigest()[:16]


# groups of ExperimentConfig fields a run may leave unread, with the key that
# sets each; the keys a section can only set along with another come first,
# so that an error names the key set last: ket_a, not the kind = separable it needs
_STATE = {"ket_a": "[state] ket_a", "ket_b": "[state] ket_b",
          "state_kind": "[state] kind"}
_ARM_B = {"arm_b.slope_deg_per_molar": "[arm_b] slope_deg_per_molar",
          "arm_b.molarity": "[arm_b] molarity", "arm_b.angle": "[arm_b] angle_deg"}
_PAIRS = {"setting_pairs": "[settings] pairs"}
_SWEEP = {"sweep_variable": "[sweep] variable", "sweep_values": "[sweep] values"}
_NAMED = "it measures the pairs Z/Z and X/Z, which the rotation is read from"
_GRID = "it probes its own arm-B grid, one half-turn in 5-deg steps"
_SEED = ("--seed", ">= 0", lambda v: v >= 0)

# What each command accepts, stated once for check_reads, cli's flag check and
# the README's tables; a sweep runs as "<variable> sweep". "unread" holds
# (fields, instead): fields the run does not read, which must hold their
# defaults, and what it uses instead; "fixed" (field, key, values, why): a field
# read at these values only; "flags" (flag, domain, test[, why]): a value other
# than None that fails test exits 2, before any library check; "needs" (flag,
# other, why): a flag off its parser default needs the other off its own.
ACCEPTS = {
    "simulate": {"unread": [(_SWEEP, "it simulates the configured arm-B rotation "
                                     "(polarot sweep runs [sweep])")],
                 "flags": [_SEED]},
    "scan": {"unread": [(_STATE, "it always probes psi_minus"), (_ARM_B, _GRID),
                        (_PAIRS, _NAMED), (_SWEEP, _GRID)],
             "flags": [_SEED]},
    "sweep": {"flags": [_SEED]},
    "theta_b sweep": {"unread": [(_STATE, "it always runs psi_plus and psi_minus"),
                                 (_ARM_B, "the [sweep] values set the arm-B angle"),
                                 (_PAIRS, _NAMED)]},
    "molarity_b sweep": {"unread": [(_PAIRS, _NAMED)], "fixed": [
        ("arm_b.molarity", "[arm_b] molarity", (0.0,), "the arm must be a solution arm "
         "to carry its slope, and the [sweep] values replace its molarity"),
        ("state_kind", "[state] kind", ("psi_plus", "psi_minus"), "its readout is the "
         "sum (psi_plus) or the difference (psi_minus) of the two rotations")]},
    "tomo": {"flags": [_SEED, ("--bootstrap", ">= 0", lambda v: v >= 0),
                       ("--bootstrap", "0 (off) or at least 2", lambda v: v != 1,
                        "one resample has no spread")],
             "needs": [("--bootstrap", "--reference", "it applies to the report"),
                       ("--out", "--reference", "it applies to the report"),
                       ("--seed", "--bootstrap", "it seeds the resamples")]},
    "fisher": {"flags": [_SEED, ("--trials", ">= 0", lambda v: v >= 0),
                         ("--trials", "at least 2 (or 0: bounds only)", lambda v: v != 1,
                          "one trial has no spread"),
                         ("--trials", f"at most {MAX_TRIALS:,}",
                          lambda v: v <= MAX_TRIALS),
                         ("--theta-deg", "finite", math.isfinite)],
               "needs": [(flag, "--trials", "it applies to the Monte Carlo trials")
                         for flag in ("--seed", "--theta-deg")]},
}
_DEFAULT = ExperimentConfig()


def check_reads(cfg: ExperimentConfig, run: str) -> None:
    """Reject a config that sets a field `run` does not read (so that it cannot
    change the run's hash), or one it reads at some values only to another, as
    ACCEPTS declares. Values compare by repr, as config_hash does: -0.0 is not 0.0."""
    accepts = ACCEPTS.get(run, {})
    for fields, instead in accepts.get("unread", ()):
        for name, key in fields.items():
            value, default = attrgetter(name)(cfg), attrgetter(name)(_DEFAULT)
            if value is not default and repr(value) != repr(default):
                raise ValueError(f"{run} does not read {key}: {instead}")
    for name, key, values, why in accepts.get("fixed", ()):
        if repr(attrgetter(name)(cfg)) not in map(repr, values):
            shown = " or ".join(v if isinstance(v, str) else f"{v:g}" for v in values)
            raise ValueError(f"{run} needs {key} = {shown}: {why}")


_COMMENT = re.compile(r"(?:^|\s)[;#]")
_KEY_LINE = re.compile(r"([^=:]+)[=:](.*)")

# the keys each section accepts; any other section or key is an error
_KEYS = {
    "state": ("kind", "ket_a", "ket_b"),
    "noise": ("visibility",),
    "arm_a": ("angle_deg", "molarity", "slope_deg_per_molar", "transmission"),
    "arm_b": ("angle_deg", "molarity", "slope_deg_per_molar", "transmission"),
    "offsets": ("pbs_a_deg", "pbs_b_deg", "hwp_deg"),
    "statistics": ("pair_flux", "duration", "seed"),
    "settings": ("pairs",),
    "sweep": ("variable", "values", "start", "stop", "count"),
}


def _read_ini(text: str) -> dict[str, dict[str, str]]:
    """The {section: {key: raw value}} of INI text, read in one pass.

    `#` or `;` at the start of a line or after whitespace begins a comment.
    A key line splits at its first `=` or `:`; keys are lower-cased, section
    names are not. A line indented deeper than its key line continues the
    value, joined with a newline. Nothing is interpolated.
    """
    def malformed(why):
        return ValueError(f"malformed config: line {number}: {why}")

    sections: dict[str, dict[str, str]] = {}
    section = key = None
    for number, line in enumerate(text.split("\n"), start=1):
        comment = (";" in line or "#" in line) and _COMMENT.search(line)
        value = line[:comment.start() if comment else None].strip()
        if not value:
            continue
        indent = len(line) - len(line.lstrip())
        if key is not None and indent > key_indent:
            section[key] += "\n" + value
            continue
        key, key_indent = None, indent
        if len(value) > 2 and value[0] == "[" and value[-1] == "]":
            if value[1:-1] in sections:
                raise malformed(f"duplicate section {value}")
            section = sections[value[1:-1]] = {}
            continue
        if section is None:
            raise malformed(f"{value!r} comes before any [section] header")
        pair = _KEY_LINE.match(value)
        if pair is None:
            raise malformed(f"expected 'key = value', got {value!r}")
        key = pair[1].strip().lower()
        if key in section:
            raise malformed(f"duplicate key {key!r}")
        section[key] = pair[2].strip()
    return sections


def _number(kind, name: str, key: str, raw: str):
    """`raw` read as a finite `kind` (float or int); errors name the key."""
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"[{name}] {key} must be {noun}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"[{name}] {key} must be finite, got {value!r}")
    return value


def _float(sec: dict, name: str, key: str,
           fallback: float | None = None) -> float | None:
    """The finite float value of `key` in section `name`, or `fallback` when
    it is absent."""
    raw = sec.get(key)
    return fallback if raw is None else _number(float, name, key, raw)


def _parse_arm(sec: dict, name: str) -> tuple[ArmConfig, float]:
    """The arm of a section and its transmission; a section without
    angle_deg or molarity, or an absent one ({}), is the angle-0 arm."""
    transmission = _float(sec, name, "transmission", DEFAULT_TRANSMISSION)
    if "angle_deg" in sec and "molarity" in sec:
        raise ValueError(f"section [{name}] must not set both angle_deg and molarity")
    if "slope_deg_per_molar" in sec and "molarity" not in sec:
        other = "with angle_deg" if "angle_deg" in sec else "without molarity"
        raise ValueError(f"section [{name}] must not set slope_deg_per_molar {other} "
                         f"(the slope calibrates a solution arm)")
    if "molarity" not in sec:
        angle = _float(sec, name, "angle_deg", 0.0)
        return ArmConfig(angle=math.radians(angle)), transmission
    arm = ArmConfig(molarity=_float(sec, name, "molarity"),
                    slope_deg_per_molar=_float(sec, name, "slope_deg_per_molar",
                                               DEFAULT_SLOPE_DEG_PER_MOLAR))
    return arm, transmission


def _parse_sweep(sec: dict) -> tuple[str | None, tuple]:
    variable = sec.get("variable")  # ExperimentConfig rejects values without one
    has_values = "values" in sec
    has_range = "start" in sec or "stop" in sec or "count" in sec
    if has_values == has_range:
        raise ValueError("[sweep] needs either 'values' or 'start/stop/count'")
    if has_values:
        if sec["values"].count(",") >= MAX_GRID_POINTS:
            raise ValueError(f"[sweep] values must hold at most {MAX_GRID_POINTS:,} "
                             f"entries")
        return variable, tuple(_number(float, "sweep", "values", v.strip())
                               for v in sec["values"].split(","))
    for key in ("start", "stop", "count"):
        if key not in sec:
            raise ValueError(f"[sweep] range is missing '{key}'")
    start = _float(sec, "sweep", "start")
    stop = _float(sec, "sweep", "stop")
    count = _number(int, "sweep", "count", sec["count"])
    if count < 2:
        raise ValueError("[sweep] count must be at least 2")
    if count > MAX_GRID_POINTS:
        raise ValueError(f"[sweep] count must be at most {MAX_GRID_POINTS:,}, "
                         f"got {count:,}")
    step = (stop - start) / (count - 1)
    return variable, tuple(start + step * i for i in range(count))


def loads_config(text: str) -> ExperimentConfig:
    """Parse a configuration from INI text."""
    ini = _read_ini(text)
    noise = ini.get("noise", {})
    if "accidental_fraction" in noise:  # a key of earlier versions; the message folds it
        folded = (_float(noise, "noise", "visibility", _DEFAULT.visibility)
                  * (1.0 - _float(noise, "noise", "accidental_fraction")))
        raise ValueError(f"[noise] accidental_fraction is no longer read: accidentals "
                         f"uniform over the four outcomes are Werner noise, so set "
                         f"[noise] visibility = V * (1 - f) = {folded:.15g} instead")
    for name, values in ini.items():
        if name not in _KEYS:
            raise ValueError(f"unknown config section [{name}]; the sections are "
                             + ", ".join(f"[{known}]" for known in _KEYS))
        for key in values:
            if key not in _KEYS[name]:
                raise ValueError(f"[{name}] unknown key {key!r}; the keys are "
                                 + ", ".join(_KEYS[name]))

    state = ini.get("state", {})
    kwargs = {"state_kind": state.get("kind", _DEFAULT.state_kind)}
    for key in ("ket_a", "ket_b"):
        if key in state and kwargs["state_kind"] != "separable":
            raise ValueError(f"section [state] must not set {key} with kind = "
                             f"{kwargs['state_kind']} (only a separable source has kets)")
        kwargs[key] = state.get(key, getattr(_DEFAULT, key))
    kwargs["visibility"] = _float(noise, "noise", "visibility", _DEFAULT.visibility)
    transmissions = {}
    for name in ("arm_a", "arm_b"):
        kwargs[name], transmissions[name] = _parse_arm(ini.get(name, {}), name)
    offsets = ini.get("offsets", {})
    for key, default in (("pbs_a", DEFAULT_PBS_A_DEG), ("pbs_b", DEFAULT_PBS_B_DEG),
                         ("hwp", DEFAULT_HWP_DEG)):
        kwargs[key] = math.radians(_float(offsets, "offsets", f"{key}_deg", default))
    statistics = ini.get("statistics", {})
    if "seed" not in statistics:
        raise ValueError("[statistics] section with an explicit seed is mandatory")
    kwargs["detection"] = Detection(
        pair_flux=_float(statistics, "statistics", "pair_flux", _DEFAULT.detection.pair_flux),
        duration=_float(statistics, "statistics", "duration", _DEFAULT.detection.duration),
        transmission_a=transmissions["arm_a"],
        transmission_b=transmissions["arm_b"])
    kwargs["seed"] = _number(int, "statistics", "seed", statistics["seed"])
    if "settings" in ini:
        if "pairs" not in ini["settings"]:
            raise ValueError("[settings] section needs a 'pairs' key")
        pairs = []
        for token in ini["settings"]["pairs"].split(","):
            token = token.strip()
            if token.count("/") != 1:
                raise ValueError(f"setting pair {token!r} must be '<id_a>/<id_b>'")
            pairs.append(tuple(setting_id.strip() for setting_id in token.split("/")))
        kwargs["setting_pairs"] = tuple(pairs)
    if "sweep" in ini:
        kwargs["sweep_variable"], kwargs["sweep_values"] = _parse_sweep(ini["sweep"])
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Load a configuration file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())
