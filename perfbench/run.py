"""Run one auvform benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload spiral --seed 7 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from its
``src/`` tree.  The last line of standard output is the result object; the
line before it holds the digests and the machine record.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    # one closed loop: pin BLAS threads before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    missing = [p for p in ("src/auvform/__init__.py", "scenarios/spiral.yaml")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a checkout of auvform, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
