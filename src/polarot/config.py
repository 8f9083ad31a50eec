"""Declarative experiment configuration.

Config files are INI-style structured text with named sections mirroring
the run description: [state], [noise], [arm_a], [arm_b], [offsets],
[statistics], [settings], [sweep]. Angles appear in degrees in
files (keys carry a _deg suffix) and are converted to radians on load.
Calibration constants default to the shipped values below and are never
hard-coded in analysis logic.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .measure import NAMED_PAIRS, Detection
from .states import BELL_KINDS

__all__ = [
    "ArmConfig", "ExperimentConfig", "load_config", "loads_config",
    "config_hash", "DEFAULT_SLOPE_DEG_PER_MOLAR", "DEFAULT_PBS_A_DEG",
    "DEFAULT_PBS_B_DEG", "DEFAULT_HWP_DEG", "DEFAULT_TRANSMISSION",
]

# shipped calibration defaults
DEFAULT_SLOPE_DEG_PER_MOLAR = 7.01
DEFAULT_PBS_A_DEG = -4.75
DEFAULT_PBS_B_DEG = 4.09
DEFAULT_HWP_DEG = 5.47
DEFAULT_TRANSMISSION = 0.75

SWEEP_VARIABLES = ("molarity_b", "theta_b")


@dataclass(frozen=True)
class ArmConfig:
    """One arm of the experiment: either a fixed rotation angle (radians)
    or a chiral solution, whose rotation in degrees follows the linear
    calibration slope_deg_per_molar * molarity."""

    angle: float | None = None
    molarity: float | None = None
    slope_deg_per_molar: float = DEFAULT_SLOPE_DEG_PER_MOLAR

    def __post_init__(self):
        if (self.angle is None) == (self.molarity is None):
            raise ValueError("an arm needs exactly one of a fixed angle or a solution")
        if self.molarity is not None and self.molarity < 0.0:
            raise ValueError(f"molarity must be nonnegative, got {self.molarity}")
        if self.molarity is not None and not math.isfinite(self.theta()):
            raise ValueError(f"solution rotation is not finite: {self.theta()!r}")

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
        if self.state_kind not in BELL_KINDS + ("separable",):
            raise ValueError(f"unknown state kind {self.state_kind!r}")
        if self.sweep_variable is not None:
            if self.sweep_variable not in SWEEP_VARIABLES:
                raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}, "
                                 f"got {self.sweep_variable!r}")
            if not self.sweep_values:
                raise ValueError("sweep requested but no sweep values given")

    def canonical_items(self) -> list[tuple[str, str]]:
        """Flat, sorted (key, value) view of every configuration field;
        the provenance hash is built from exactly these items."""
        items = {
            "state.kind": self.state_kind,
            "state.ket_a": self.ket_a,
            "state.ket_b": self.ket_b,
            "noise.visibility": repr(self.visibility),
            "noise.accidental_fraction": repr(self.detection.accidental_fraction),
            "arm_a.transmission": repr(self.detection.transmission_a),
            "arm_b.transmission": repr(self.detection.transmission_b),
            "offsets.pbs_a": repr(self.pbs_a),
            "offsets.pbs_b": repr(self.pbs_b),
            "offsets.hwp": repr(self.hwp),
            "statistics.pair_flux": repr(self.detection.pair_flux),
            "statistics.duration": repr(self.detection.duration),
            "statistics.seed": repr(self.seed),
            "settings.pairs": ";".join(f"{a}/{b}" for a, b in self.setting_pairs),
            "sweep.variable": str(self.sweep_variable),
            "sweep.values": ";".join(repr(v) for v in self.sweep_values),
        }
        for name, arm in (("arm_a", self.arm_a), ("arm_b", self.arm_b)):
            if arm.angle is not None:
                items[f"{name}.angle"] = repr(arm.angle)
            else:
                items[f"{name}.molarity"] = repr(arm.molarity)
                items[f"{name}.slope"] = repr(arm.slope_deg_per_molar)
        return sorted(items.items())


def config_hash(cfg: ExperimentConfig) -> str:
    payload = "\n".join(f"{k}={v}" for k, v in cfg.canonical_items())
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _float(section, key: str, fallback: float | None = None) -> float | None:
    """The finite float value of `key`, or `fallback` when it is absent."""
    value = section.getfloat(key, fallback=fallback)
    if value is not None and not math.isfinite(value):
        raise ValueError(f"[{section.name}] {key} must be finite, got {value!r}")
    return value


def _parse_arm(section) -> tuple[ArmConfig, float]:
    """The arm of a section and its transmission."""
    transmission = _float(section, "transmission", fallback=DEFAULT_TRANSMISSION)
    has_angle = "angle_deg" in section
    has_molarity = "molarity" in section
    if has_angle and has_molarity:
        raise ValueError(f"section [{section.name}] must not set both angle_deg "
                         f"and molarity")
    if has_angle:
        if "slope_deg_per_molar" in section:
            raise ValueError(f"section [{section.name}] must not set slope_deg_per_molar "
                             f"with angle_deg (the slope calibrates a solution arm)")
        angle = math.radians(_float(section, "angle_deg"))
        return ArmConfig(angle=angle), transmission
    if has_molarity:
        arm = ArmConfig(molarity=_float(section, "molarity"),
                        slope_deg_per_molar=_float(section, "slope_deg_per_molar",
                                                   fallback=DEFAULT_SLOPE_DEG_PER_MOLAR))
        return arm, transmission
    raise ValueError(f"section [{section.name}] needs angle_deg or molarity")


def _parse_sweep(section) -> tuple[str, tuple]:
    variable = section.get("variable")
    if variable is None:
        raise ValueError("[sweep] section needs a 'variable' key")
    has_values = "values" in section
    has_range = "start" in section or "stop" in section or "count" in section
    if has_values == has_range:
        raise ValueError("[sweep] needs either 'values' or 'start/stop/count'")
    if has_values:
        values = tuple(float(v) for v in section.get("values").split(","))
        for value in values:
            if not math.isfinite(value):
                raise ValueError(f"[sweep] values must be finite, got {value!r}")
    else:
        for key in ("start", "stop", "count"):
            if key not in section:
                raise ValueError(f"[sweep] range is missing '{key}'")
        start = _float(section, "start")
        stop = _float(section, "stop")
        count = section.getint("count")
        if count < 2:
            raise ValueError("[sweep] count must be at least 2")
        step = (stop - start) / (count - 1)
        values = tuple(start + step * i for i in range(count))
    return variable, values


def loads_config(text: str) -> ExperimentConfig:
    """Parse a configuration from INI text."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc

    kwargs = {}
    if parser.has_section("state"):
        sec = parser["state"]
        kwargs["state_kind"] = sec.get("kind", "psi_minus").strip()
        kwargs["ket_a"] = sec.get("ket_a", "H").strip().upper()
        kwargs["ket_b"] = sec.get("ket_b", "V").strip().upper()
    accidental_fraction = 0.0
    if parser.has_section("noise"):
        sec = parser["noise"]
        kwargs["visibility"] = _float(sec, "visibility", fallback=1.0)
        accidental_fraction = _float(sec, "accidental_fraction", fallback=0.0)
    transmissions = {}
    for name in ("arm_a", "arm_b"):
        if parser.has_section(name):
            kwargs[name], transmissions[name] = _parse_arm(parser[name])
    if parser.has_section("offsets"):
        sec = parser["offsets"]
        kwargs["pbs_a"] = math.radians(_float(sec, "pbs_a_deg", fallback=DEFAULT_PBS_A_DEG))
        kwargs["pbs_b"] = math.radians(_float(sec, "pbs_b_deg", fallback=DEFAULT_PBS_B_DEG))
        kwargs["hwp"] = math.radians(_float(sec, "hwp_deg", fallback=DEFAULT_HWP_DEG))
    if not parser.has_section("statistics") or "seed" not in parser["statistics"]:
        raise ValueError("[statistics] section with an explicit seed is mandatory")
    sec = parser["statistics"]
    kwargs["detection"] = Detection(
        pair_flux=_float(sec, "pair_flux", fallback=1e5),
        duration=_float(sec, "duration", fallback=1.0),
        transmission_a=transmissions.get("arm_a", DEFAULT_TRANSMISSION),
        transmission_b=transmissions.get("arm_b", DEFAULT_TRANSMISSION),
        accidental_fraction=accidental_fraction)
    try:
        kwargs["seed"] = sec.getint("seed")
    except ValueError:
        raise ValueError(f"[statistics] seed must be an integer, "
                         f"got {sec['seed']!r}") from None
    if kwargs["seed"] < 0:
        raise ValueError(f"[statistics] seed must be >= 0, got {kwargs['seed']}")
    if parser.has_section("settings"):
        pairs = []
        for token in parser["settings"].get("pairs").split(","):
            token = token.strip()
            if token.count("/") != 1:
                raise ValueError(f"setting pair {token!r} must be '<id_a>/<id_b>'")
            a, b = token.split("/")
            pairs.append((a.strip(), b.strip()))
        kwargs["setting_pairs"] = tuple(pairs)
    if parser.has_section("sweep"):
        variable, values = _parse_sweep(parser["sweep"])
        kwargs["sweep_variable"] = variable
        kwargs["sweep_values"] = values
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Load a configuration file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())
