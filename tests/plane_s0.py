"""On-demand probe: the s = 0 row of p2:d at d = 8, 9 and 10.

The s = 0 row is a path sum over the sweep-state graph, so at these
degrees its cost is the graph build.  Its rank is Kontsevich's N_d, an
oracle that shares no code with the engine, so the probe checks
`count(p2:d, 0).rank == kontsevich(d)` and pins no engine-only number.

Each degree runs in its own interpreter, so that no degree holds
another's graph (`diagrams._graphs` keeps every graph it builds) and
the peak RSS printed is that degree's alone.

Run from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/plane_s0.py

It prints one line per degree with the rank, the wall time and the
peak RSS, then a summary, and exits 1 if a rank differs, 0 otherwise.
"""

import resource
import subprocess
import sys
import time

from gwfloor.counting import count, kontsevich
from gwfloor.degrees import parse_degree

DEGREES = (8, 9, 10)


def check(d: int) -> bool:
    """Count the s = 0 row of p2:d, print its line, and say whether the rank is N_d."""
    start = time.perf_counter()
    rank, expected = count(parse_degree(f"p2:{d}"), 0).rank, kontsevich(d)
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"p2:{d} s = 0: rank {rank}, N_{d} = {expected}; "
          f"{seconds:.1f} s, peak RSS {peak_mb:.0f} MB", flush=True)
    return rank == expected


def main(argv: list[str]) -> int:
    if argv:  # one degree, in this interpreter
        return int(not check(int(argv[0])))
    start = time.perf_counter()
    failed = [d for d in DEGREES
              if subprocess.run([sys.executable, __file__, str(d)]).returncode != 0]
    named = "".join(f" p2:{d}" for d in failed)
    print(f"{len(DEGREES)} degrees, {len(failed)} failed{named}; "
          f"{time.perf_counter() - start:.1f} s")
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
