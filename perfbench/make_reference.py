"""Write the exact-analysis reference outputs into perfbench/reference/.

    python3 perfbench/make_reference.py

Runs every exact-analysis command of the full-size workload against the
checkout's ``src`` and stores its CSV.  The stored files are the
reference later versions are compared against, so regenerate them only
when an intended change of the numbers has been reviewed.
"""

import os
import subprocess
import sys

from run import ROOT, SRC
from workloads import REFERENCE_DIR, ExactAnalysis


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for stem, argv in ExactAnalysis(smoke=False).commands():
        out = subprocess.run(
            [sys.executable, "-m", "bkcdf.cli", *argv],
            env=env, cwd=ROOT, check=True, capture_output=True,
        ).stdout
        (REFERENCE_DIR / f"{stem}.csv").write_bytes(out)
        print(stem, len(out.splitlines()) - 1, "rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
