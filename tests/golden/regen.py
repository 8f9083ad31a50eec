"""Rewrite the golden files from the case list in cases.py.

    python tests/golden/regen.py

Run it only when an output or a random stream changes on purpose, and
commit the regenerated files together with that change.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

# the checkout's own sources, as in the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from cases import CASES, EXPECTED, run_case  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            code, files = run_case(name, Path(tmp) / name)
            if code != 0:
                print(f"{name}: exit code {code}, goldens not written",
                      file=sys.stderr)
                return 1
            target = EXPECTED / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for file_name, data in files.items():
                (target / file_name).write_bytes(data)
            print(f"{name}: {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
