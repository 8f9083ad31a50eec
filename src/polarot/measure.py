"""Projective polarization measurements and coincidence statistics.

Covers analyzer settings, each an id string that only parse_setting turns
into kets; Born-rule outcome probabilities, exact and seeded Poisson
coincidence counts, correlation estimators, extraction of the local
rotation angles from the two branch rotations, and the CHSH statistic of
a coincidence table.

Every probability of a setting pair comes from one batched Born kernel,
outcome_probabilities: a stack of states against the projector tensor
P_a (x) P_b of (id_a, id_b) setting pairs, Tr[rho (P_a (x) P_b)] (James,
Kwiat, Munro & White, PRA 64, 052312, 2001). A table holds one state; the
sweep and scan kernels work on whole stacks of states, one per arm angle.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .csvfile import read_csv, row_floats, write_csv
from .states import ket, validate_state

__all__ = [
    "parse_setting", "NAMED_PAIRS", "CoincidenceTable",
    "Detection", "projector_tensor", "outcome_probabilities",
    "exact_observables", "simulate_counts", "exact_table",
    "estimate_correlation", "estimate_observables", "extract_thetas",
    "chsh_from_counts", "write_table", "read_table",
]


_ARITY = {"Z": 0, "X": 0, "Y": 0, "lin": 1, "wp": 2}  # the angles each kind carries
# the largest Poisson mean numpy draws (int64 max - 10 sqrt(int64 max))
MAX_POISSON_MEAN = 9.223372006484771e18
# a branch factor F is read where |F| >= max(MODULUS_FLOOR, SIGNIFICANCE
# sigma_F) (_branch_rotations): a round-off floor, and z = 4 sigmas, from
# where the rotation sigma covers the readout as it should
MODULUS_FLOOR = 1e-6
SIGNIFICANCE = 4.0
# the least total a correlation is read from: below one count its sigma
# sqrt((1 - m^2) / n) can pass 1; one pair less round-off, since an exact
# row of one mean pair may sum to a few ulp below 1
_MIN_TOTAL = 1.0 - 1e-12


def parse_setting(setting_id: str) -> tuple[str, np.ndarray]:
    """The canonical id of an analyzer setting and its port kets, shape
    (2, 2): the +1 ket, then the -1 ket.

    Each kind names its +1 port, and the -1 port of every kind is its
    orthogonal complement [-conj(k1), conj(k0)], as for a polarizing beam
    splitter. 'Z', 'X' and 'Y' are the named bases, with +1 at H, D and L.
    'lin:<deg>' is a linear analyzer rotated by <deg>: +1 transmits
    cos|H> + sin|V>. 'wp:<hwp deg>:<qwp deg>' is a half- then a quarter-wave
    plate in front of a polarizing beam splitter, with +1 at the transmitted
    (H) port. Every finite angle parses. An analyzer is fixed by its angles
    modulo 180 deg, and by its half-wave plate angle modulo 90 deg (HWP(h +
    90) = -HWP(h), a global phase), so each angle is reduced into [-90, 90),
    a half-wave plate angle into [-45, 45), and rounded to six decimals, a
    zero unsigned (lin:202.5 is lin:22.500000, lin:90 is lin:-90.000000,
    lin:-0.0000001 is lin:0.000000, wp:100:20 is wp:10.000000:20.000000),
    before the kets are built: a canonical id parses to itself and the same
    kets. Errors name the id.
    """
    kind, *values = setting_id.split(":")
    if len(values) != _ARITY.get(kind):
        raise ValueError(f"cannot parse analyzer setting id {setting_id!r}; expected "
                         f"Z, X, Y, 'lin:<deg>' or 'wp:<hwp deg>:<qwp deg>'")
    try:
        degrees = [float(v) for v in values]
        if not all(map(math.isfinite, degrees)):
            raise ValueError("angles must be finite")
    except ValueError as err:
        raise ValueError(f"analyzer setting {setting_id!r}: {err}") from None
    # the exact remainder first, so that rounding sees the same value for
    # every turn of one angle; rounding may reach half a period, which is -half
    periods = (90.0, 180.0) if kind == "wp" else (180.0,)
    degrees = [round(math.remainder(d, p), 6) + 0.0 for d, p in zip(degrees, periods)]
    degrees = [-p / 2 if d == p / 2 else d for d, p in zip(degrees, periods)]
    angles = [math.radians(d) for d in degrees]
    if kind == "lin":
        plus = [math.cos(angles[0]), math.sin(angles[0])]
    elif kind == "wp":
        # (QWP(q) HWP(h))^dag |H> = HWP(h) (a, b), where (a, b) = QWP(q)^dag |H>
        # and HWP(h) = [[cos 2h, sin 2h], [sin 2h, -cos 2h]]
        c, s = math.cos(angles[1]), math.sin(angles[1])
        c2, s2 = math.cos(2.0 * angles[0]), math.sin(2.0 * angles[0])
        a, b = complex(c * c, s * s), complex(s * c, -s * c)
        plus = [c2 * a + s2 * b, s2 * a - c2 * b]
    else:
        plus = ket({"Z": "H", "X": "D", "Y": "L"}[kind])
    kets = np.array([plus, [-plus[1].conjugate(), plus[0].conjugate()]], dtype=complex)
    return ":".join([kind] + [f"{d:.6f}" for d in degrees]), kets


def projector_tensor(settings) -> np.ndarray:
    """Joint projectors P_a (x) P_b of (id_a, id_b) setting pairs, shape
    (S, 4, 4, 4): setting, outcome (++, +-, -+, --), then the two-photon
    matrix. An empty settings list raises."""
    if not settings:
        raise ValueError("settings list must not be empty")
    kets = [(parse_setting(a)[1].tolist(), parse_setting(b)[1].tolist())
            for a, b in settings]
    # each port projector |k><k| from Python complex products
    pa, pb = (np.array([[[[x * y.conjugate() for y in k] for x in k] for k in pair[arm]]
                        for pair in kets]) for arm in (0, 1))
    # kron(P, Q)[2i + j, 2k + l] = P[i, k] Q[j, l], for each outcome pair
    return np.einsum("sxik,syjl->sxyijkl", pa, pb).reshape(len(kets), 4, 4, 4)


# the (Z,Z), (X,Z), (Z,X) analyzer pairs behind M_zz, M_xz and M_zx; the
# sweeps and the scan read the rotation from the first two, _NAMED_PROJECTORS[:2]
NAMED_PAIRS = (("Z", "Z"), ("X", "Z"), ("Z", "X"))
_NAMED_PROJECTORS = projector_tensor(NAMED_PAIRS)


@dataclass
class CoincidenceTable:
    """Coincidence counts per joint analyzer setting.

    settings holds (id_a, id_b) pairs, stored canonical, and counts one row
    per pair with the four outcome combinations (++, +-, -+, --). Counts are
    floats so that exact-expectation tables can store unrounded expected
    values; sampled tables hold integers.
    """

    settings: list[tuple[str, str]]
    counts: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.settings = [(parse_setting(a)[0], parse_setting(b)[0])
                         for a, b in self.settings]
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (len(self.settings), 4):
            raise ValueError(f"counts must have shape ({len(self.settings)}, 4), "
                             f"got {self.counts.shape}")
        if not np.isfinite(self.counts).all():
            raise ValueError("counts must be finite")
        if (self.counts < 0).any():
            raise ValueError("counts must be nonnegative")


def outcome_probabilities(rho: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """Born probabilities Tr[rho (P_a (x) P_b)] of the four coincidence
    outcomes (++, +-, -+, --) of each of the S settings of a projector
    tensor (projector_tensor), with round-off below 0 clipped to 0.

    rho is one state or a (..., 4, 4) stack, validated once; the result has
    shape (..., S, 4).
    """
    return _born(validate_state(rho), projectors)


def _born(rho: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    # sum_ij rho_ij P_ji as one contraction over the flattened index pair
    # (i, j): each probability is then summed in the same order whatever
    # the stack shape, so a state's values do not depend on its batch
    transposed = projectors.swapaxes(-2, -1).reshape(len(projectors), 4, 16)
    probs = np.einsum("...x,skx->...sk", rho.reshape(rho.shape[:-2] + (16,)),
                      transposed).real
    return np.clip(probs, 0.0, None)


def _correlations(probs: np.ndarray) -> np.ndarray:
    """P(++) - P(+-) - P(-+) + P(--) along the last axis."""
    return probs[..., 0] - probs[..., 1] - probs[..., 2] + probs[..., 3]


def exact_observables(rho: np.ndarray) -> np.ndarray:
    """Born-rule joint observables of a state: the correlations M_zz, M_xz
    and M_zx of the named (Z,Z), (X,Z), (Z,X) analyzer pairs on the last
    axis, shape (3,) for one state and (..., 3) for a (..., 4, 4) stack."""
    return _correlations(outcome_probabilities(rho, _NAMED_PROJECTORS))


@dataclass(frozen=True)
class Detection:
    """The counting model of a coincidence table, checked once here:
    pair_flux * duration * both arm transmissions detected pairs per
    setting on average, at most MAX_POISSON_MEAN of them. Each field is
    stored as a float, so equal values repr alike. Uniform accidentals have
    no field: a fraction f of them is Werner noise, which the source's
    visibility V carries as V (1 - f). asdict(detection) is table metadata."""

    pair_flux: float
    duration: float
    transmission_a: float = 1.0
    transmission_b: float = 1.0

    def __post_init__(self):
        for name in ("pair_flux", "duration", "transmission_a", "transmission_b"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0.0 < self.pair_flux < math.inf and 0.0 < self.duration < math.inf):
            raise ValueError(f"pair_flux and duration must be positive and finite, "
                             f"got {self.pair_flux}, {self.duration}")
        for name in ("transmission_a", "transmission_b"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not self.mean_pairs() <= MAX_POISSON_MEAN:
            raise ValueError(f"pair_flux * duration * transmission_a * transmission_b "
                             f"= {self.mean_pairs():g} pairs per setting is above "
                             f"{MAX_POISSON_MEAN:g}, the largest Poisson mean numpy draws")

    def mean_pairs(self) -> float:
        """Mean detected pairs per setting."""
        return self.pair_flux * self.duration * self.transmission_a * self.transmission_b


def _mean_counts(rho, projectors, detection) -> np.ndarray:
    # the mean count of every cell of a projector tensor's settings: the
    # detected pairs per setting split by the Born probabilities, normalized
    # per setting
    p = _born(rho, projectors)
    return detection.mean_pairs() * (p / p.sum(axis=-1, keepdims=True))


def exact_table(rho: np.ndarray, settings, detection: Detection) -> CoincidenceTable:
    """Expected-value coincidence table: the sampling-free limit of
    simulate_counts, with unrounded mean counts per outcome,
    detection.mean_pairs() per setting split by the Born probabilities."""
    counts = _mean_counts(validate_state(rho), projector_tensor(settings), detection)
    return CoincidenceTable(settings, counts, dict(asdict(detection), exact=1))


def simulate_counts(rho: np.ndarray, settings, detection: Detection,
                    seed: int = 0) -> CoincidenceTable:
    """Draw one state's coincidence table for the given (id_a, id_b) pairs.

    Every cell is an independent Poisson count whose mean is the exact
    table's (exact_table): detection.mean_pairs() per setting, split by
    the Born outcome probabilities. Accidental coincidences uniform over
    the four outcomes are part of the state's Werner noise
    (channels.apply_noise), not of the detection.

    The whole table draws from one random stream, default_rng(seed) for
    the int `seed` (the metadata's rng_seed), cells in row order. The table
    is reproducible from its seed, but what one setting draws depends on
    the number and order of all the settings in the table.
    """
    counts = np.random.default_rng(seed).poisson(
        _mean_counts(validate_state(rho), projector_tensor(settings), detection))
    return CoincidenceTable(settings, counts,
                            dict(asdict(detection), rng_seed=int(seed), exact=0))


def estimate_correlation(counts: np.ndarray):
    """Correlation estimate (n_pp - n_pm - n_mp + n_mm) / n_total and its
    binomial standard error sqrt((1 - m^2) / n_total): two floats for one
    (4,) row of counts, two arrays for a (..., 4) stack of rows. A row with
    a negative or non-finite count or total, an empty row, or a row of
    fewer than one count in total (whose sigma could pass 1) raises, naming
    its stack index. Any other row has |m| <= 1 in floating point."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum(axis=-1)
    # min and max test the whole array without a row mask; an empty stack passes
    if not (counts.min(initial=0.0) >= 0.0 and total.min(initial=1.0) >= _MIN_TOTAL
            and total.max(initial=0.0) < math.inf):
        for bad, what in ((~(counts >= 0).all(axis=-1) | ~(total < math.inf),
                           "negative or non-finite counts or total"),
                          (total <= 0, "zero total counts"),
                          (total < _MIN_TOTAL, "fewer than one count in total")):
            if bad.any():
                idx = tuple(int(i) for i in np.argwhere(bad)[0])
                where = f" at stack index {idx}" if idx else ""
                raise ValueError(f"cannot estimate a correlation from {what}{where}")
    m = _correlations(counts) / total
    sigma = np.sqrt((1.0 - m * m) / total)
    return (float(m), float(sigma)) if counts.ndim == 1 else (m, sigma)


def _rows_for_pair(table: CoincidenceTable, id_a: str, id_b: str) -> np.ndarray:
    rows = [k for k, pair in enumerate(table.settings) if pair == (id_a, id_b)]
    if not rows:
        raise ValueError(f"coincidence table is missing the ({id_a}, {id_b}) "
                         f"basis pair")
    counts = table.counts[rows].sum(axis=0)
    total = counts.sum()
    if total < _MIN_TOTAL:
        what = "zero total counts" if total <= 0 else f"{total:g} counts, fewer than one in total"
        raise ValueError(f"the ({id_a}, {id_b}) basis pair has {what}")
    return counts


def estimate_observables(table: CoincidenceTable):
    """Estimate the (z,z), (x,z), (z,x) correlations from a coincidence
    table containing the named basis pairs (Z,Z), (X,Z) and (Z,X): the
    estimates and their standard errors, two (3,) arrays in NAMED_PAIRS order."""
    return estimate_correlation([_rows_for_pair(table, a, b) for a, b in NAMED_PAIRS])


def extract_thetas(m_plus, m_minus, sigma_plus, sigma_minus) -> tuple[float, float]:
    """Recover both local rotation angles from the joint observables of the
    addition- and cancellation-branch states and their standard errors:
    arrays whose last axis holds M_zz, M_xz and optionally M_zx
    (NAMED_PAIRS order; M_zx is not read), each sigma broadcastable to its
    branch (0.0 for exact observables).

    The branch rotations (_branch_rotations) are theta_a + theta_b in the
    addition branch and theta_a - theta_b in the cancellation branch, each
    modulo pi, so theta_a and theta_b are their half-sum and
    half-difference modulo pi/2 (_local_angles). The readout is
    single-valued for angles within the +-pi/4 window; outside it the
    result wraps by pi/2 (scan with sweeps.run_scan when the prior is wider).
    Two floats for one pair of (3,) arrays, two arrays for stacks; a branch
    whose M_zz or M_xz is not in [-1, 1] or whose sigmas are not in [0, 1]
    raises, as does a branch factor -m_zz - i m_xz below the significance
    rule of _branch_rotations, naming its index.
    """
    ms = [np.asarray(m) for m in (m_plus, m_minus)]
    if any(m.ndim == 0 or m.shape[-1] < 2 for m in ms):
        raise ValueError(f"extract_thetas needs M_zz and M_xz on the last axis of each "
                         f"branch, got shapes {ms[0].shape} and {ms[1].shape}")
    stack = np.stack(np.broadcast_arrays(*(m[..., :2] for m in ms)))
    sigma = np.stack(np.broadcast_arrays(*(np.broadcast_to(s, m.shape)[..., :2]
                                           for s, m in zip((sigma_plus, sigma_minus), ms))))
    # a correlation lies in [-1, 1], so its standard error is at most 1
    if not ((np.abs(stack) <= 1.0).all() and ((sigma >= 0.0) & (sigma <= 1.0)).all()):
        raise ValueError("extract_thetas needs M_zz and M_xz in [-1, 1] and their "
                         "sigmas in [0, 1] in each branch")
    theta, _ = _branch_rotations(("psi_plus", "psi_minus"), stack[..., 0], stack[..., 1],
                                 sigma[..., 0], sigma[..., 1])
    return _local_angles(*theta)


def _branch_rotations(kinds, m_zz, m_xz, sigma_zz=0.0, sigma_xz=0.0, cov=0.0) -> tuple:
    """The rotation of each branch of `kinds` (psi_plus or psi_minus) and
    its propagated standard error, from correlations with one entry per
    kind on the leading axis, their sigmas and the covariance cov of m_zz
    and m_xz: theta = atan2(-m_xz, -m_zz) / 2, in [-pi/2, pi/2]. The edge
    m_zz > 0, m_xz = 0 reads -pi/2 for m_xz = +0.0 and pi/2 for -0.0, as
    atan2 takes the sign of a zero.

    One significance rule decides where a phase is read: the branch factor
    F = -m_zz - i m_xz needs |F| >= max(MODULUS_FLOOR, SIGNIFICANCE sigma_F),
    with sigma_F the standard error of F across its own direction, the part
    that turns its phase: |F| sigma_F = sqrt(m_xz^2 s_zz^2 + m_zz^2 s_xz^2 -
    2 m_zz m_xz cov), and sigma = sigma_F / (2 |F|). Sigmas 0 (exact data)
    leave the floor alone. A factor below the rule raises, naming its
    branch, its stack index and |F|, and |F| / sigma_F above the floor."""
    r2 = m_zz * m_zz + m_xz * m_xz
    # |F| sigma_F; at |cov| = sigma_zz sigma_xz the radicand cancels to
    # round-off, which may fall below 0
    spread = np.sqrt(np.maximum(np.square(m_xz * sigma_zz) + np.square(m_zz * sigma_xz)
                                - 2.0 * m_zz * m_xz * cov, 0.0))
    modulus = np.hypot(m_zz, m_xz)
    bad = (modulus < MODULUS_FLOOR) | (r2 < SIGNIFICANCE * spread)
    if bad.any():
        first = tuple(int(i) for i in np.argwhere(bad)[0])  # (kind, stack index)
        where = f" at stack index {first[1:]}" if first[1:] else ""
        factor = f"extraction ill-conditioned{where}: |{kinds[first[0]][4:]}-branch factor| = "
        if modulus[first] < MODULUS_FLOOR:
            raise ValueError(f"{factor}{modulus[first]:g} < {MODULUS_FLOOR:g}")
        raise ValueError(f"{factor}{modulus[first]:g} = {r2[first] / spread[first]:.3g} "
                         f"sigma_F < {SIGNIFICANCE:g} sigma_F")
    return 0.5 * np.arctan2(-m_xz, -m_zz), 0.5 * spread / r2


def _local_angles(theta_plus, theta_minus, quarter_turn: float = math.pi / 2):
    """theta_a and theta_b, the half-sum and half-difference of the branch
    rotations theta_a + theta_b and theta_a - theta_b, each wrapped into
    [-q/2, q/2] as x - q round(x / q) (math.remainder(x, q), ties to even)
    for the quarter turn q = quarter_turn: pi/2 for radians, 90 for degrees."""
    halves = np.array(((theta_plus + theta_minus) / 2.0, (theta_plus - theta_minus) / 2.0))
    halves -= quarter_turn * np.round(halves / quarter_turn)
    return tuple(halves.tolist() if halves.ndim == 1 else halves)


def chsh_from_counts(table: CoincidenceTable) -> tuple[float, float]:
    """CHSH S = max_k |E_1 + E_2 + E_3 + E_4 - 2 E_k|, the largest of the
    four CHSH forms (Clauser, Horne, Shimony & Holt, PRL 23, 880, 1969), and
    its plug-in standard error from an exact or sampled coincidence table.

    E_k are the correlations of the table's two settings per arm (any kind,
    in table order, none with a role; two different analyzers) in all four
    combinations. Correlation sigmas combine in quadrature since every term
    has unit |derivative|."""
    arms = [list(dict.fromkeys(pair[arm] for pair in table.settings)) for arm in (0, 1)]
    if len(arms[0]) != 2 or len(arms[1]) != 2:
        raise ValueError(f"CHSH needs two analyzer settings per arm, got "
                         f"{arms[0]} / {arms[1]}")
    for ids in arms:  # two ids of one analyzer (lin:45 and X, wp:0:0 and Z)
        p, q = (np.outer(k, k.conj()) for k in (parse_setting(i)[1][0] for i in ids))
        if np.abs(p - q).max() <= 1e-12:
            raise ValueError(f"CHSH needs two different analyzers per arm, but "
                             f"{ids[0]} and {ids[1]} have the same +1 port")
    e, sigmas = zip(*(estimate_correlation(_rows_for_pair(table, a, b))
                      for a in arms[0] for b in arms[1]))
    s = max(abs(sum(e) - 2.0 * e_k) for e_k in e)
    return s, math.sqrt(sum(v ** 2 for v in sigmas))


_TABLE_HEADER = "setting_a_id,setting_b_id,n_pp,n_pm,n_mp,n_mm"


def write_table(table: CoincidenceTable, path) -> None:
    """Write a coincidence table as comma-separated text with '#'-prefixed
    key=value metadata lines and a mandatory header row."""
    write_csv(path, [(key, table.metadata[key]) for key in sorted(table.metadata)],
              _TABLE_HEADER,
              ([a, b, *(f"{v:.17g}" for v in row)]
               for (a, b), row in zip(table.settings, table.counts)))


def read_table(path) -> CoincidenceTable:
    """Read a coincidence table written by write_table; metadata values
    come back as the strings in the file, and every error names it."""
    metadata, rows = read_csv(path, _TABLE_HEADER)
    counts = np.array([row_floats(path, row, 2) for row in rows])
    try:
        return CoincidenceTable([row[:2] for row in rows], counts, metadata)
    except ValueError as exc:  # a bad setting id, or a negative count
        raise ValueError(f"{path}: {exc}") from None
