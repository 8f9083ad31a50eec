"""How `loads_config` answers a corpus of edited configs.

    python tests/config_corpus.py [--pairs N --seed S]

Each base config (the golden .ini inputs, the README example and a minimal
config) is edited once in every way: a key deleted, a key of `_KEYS` set to
each of VALUES, or a section dropped. It prints one `label<TAB>outcome` line
per edited config; the outcome is `ok <config_hash>` or `<ExceptionType>:
<message>`. `--pairs N --seed S` adds N configs, drawn with seed S, that
each apply two edits to one base. Diff the listings of two checkouts to see
which configs a loader change answers differently.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the checkout's own sources, as in the tests
sys.path.insert(0, str(ROOT / "src"))

from polarot import config  # noqa: E402

# numbers, texts and lists for every key, valid for some and faults for others
VALUES = ("0", "1", "-1", "0.5", "2", "4", "7.01", "20.08", "1e5", "1e-300", "1e300",
          "-0", "100001", "nan", "inf", "-inf", "abc", "", "0x1", "1_0", "0, 1",
          "0, 0.5, 1", "1,", "H", "v", "D", "psi_minus", "PSI_PLUS", "phi_plus",
          "separable", "molarity_b", "theta_b", "Z/Z", "Z/Z, X/Z", "lin:22.5/wp:10:20")
MINIMAL = "[statistics]\nseed = 1\n"


def bases() -> list[tuple[str, dict]]:
    """(name, {section: {key: raw value}}) of each base config."""
    texts = [(path.name, path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "tests" / "golden" / "inputs").glob("*.ini"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    texts += [("README", *re.findall(r"```ini\n(.*?)```", readme, flags=re.S)),
              ("minimal", MINIMAL)]
    return [(name, config._read_ini(text)) for name, text in texts]


def edits(base: dict):
    """(label, (section, key, value)) of every single edit of `base`: a key
    deleted (value None), a key set, or a section dropped (key None)."""
    for section, keys in base.items():
        for key in keys:
            yield f"-{section}.{key}", (section, key, None)
    for section, keys in config._KEYS.items():
        for key in keys:
            for value in VALUES:
                yield f"{section}.{key}={value}", (section, key, value)
    for section in base:
        yield f"-[{section}]", (section, None, None)


def edited(base: dict, changes) -> str:
    """The INI text of `base` with `changes` applied in turn."""
    ini = {section: dict(keys) for section, keys in base.items()}
    for section, key, value in changes:
        if key is None:
            ini.pop(section, None)
        elif value is None:
            ini.get(section, {}).pop(key, None)
        else:
            ini.setdefault(section, {})[key] = value
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n"
                                              for key, value in keys.items())
                   for section, keys in ini.items())


def outcome(text: str) -> str:
    try:
        return "ok " + config.config_hash(config.loads_config(text))
    except Exception as exc:  # noqa: BLE001 - the listing names any escape
        return f"{type(exc).__name__}: {exc}".replace("\n", "\\n")


def listing(pairs: int = 0, seed: int = 0) -> list[str]:
    """The `label<TAB>outcome` lines: every single edit of every base, then
    `pairs` seeded two-edit configs."""
    pools = [(name, base, list(edits(base))) for name, base in bases()]
    lines = [f"{name} {label}\t{outcome(edited(base, [change]))}"
             for name, base, pool in pools for label, change in pool]
    rng = random.Random(seed)
    for _ in range(pairs):
        name, base, pool = rng.choice(pools)
        (first, one), (second, other) = rng.sample(pool, 2)
        lines.append(f"{name} {first} + {second}\t{outcome(edited(base, [one, other]))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=0, help="two-edit configs to add")
    parser.add_argument("--seed", type=int, default=0, help="seed of the two-edit sample")
    args = parser.parse_args(argv)
    sys.stdout.write("".join(line + "\n" for line in listing(args.pairs, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
