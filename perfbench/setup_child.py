"""One benchmark set-up in a fresh interpreter: import polarot.cli from the
checkout's src/, then write the workload's inputs.

    python3 perfbench/setup_child.py WORKLOAD SEED POOL_DIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import polarot.cli  # noqa: E402,F401  (the import every CLI command pays)

import workloads  # noqa: E402

workloads.generate_pool(sys.argv[1], int(sys.argv[2]), sys.argv[3])
