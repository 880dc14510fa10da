"""On-demand probe: the s = 0 row of p2:d at d = 8, 9 and 10.

The s = 0 row is a path sum over the sweep-state graph, so at these
degrees its cost is the graph build.  Its rank is Kontsevich's N_d, an
oracle that shares no code with the engine, so the probe checks
`count(p2:d, 0).rank == kontsevich(d)` and pins no engine-only number.

Each degree runs in its own interpreter, so that no degree holds
another's graph (`diagrams._graphs` keeps every graph it builds) and
the peak RSS printed is that degree's alone.  After the timed count the
interpreter builds the graph once more under `tracemalloc`, which slows
that build and is left out of the time and the peak RSS: the traced
size is what the built graph keeps, the traced peak that of its build.
The digest is a SHA-1 of the numbered graph (per state its strands, kept
moves and children's numbers, then the top's number and the root's path
count), fed state by state so that no dump of the whole graph is held:
two versions of the engine that print the same digest built the same
graph.

Run from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/plane_s0.py

It prints one line per degree with the rank, the live states and kept
moves of the graph, its digest, the wall time and the peak RSS of the
count, and the traced size and peak of the graph's build, then a
summary, and exits 1 if a rank differs, 0 otherwise.
"""

import hashlib
import resource
import subprocess
import sys
import time
import tracemalloc

from gwfloor import diagrams
from gwfloor.counting import count, kontsevich
from gwfloor.degrees import parse_degree

DEGREES = (8, 9, 10)


def digest(graph) -> str:
    """The SHA-1 of the graph's strands, moves, children, top and paths, state by state."""
    sha = hashlib.sha1()
    for state in zip(graph.strands, graph.moves, graph.children):
        sha.update(repr(state).encode())
    sha.update(repr((graph.top, graph.paths)).encode())
    return sha.hexdigest()


def check(d: int) -> bool:
    """Count the s = 0 row of p2:d, print its line, and say whether the rank is N_d."""
    spec = parse_degree(f"p2:{d}")
    start = time.perf_counter()
    rank, expected = count(spec, 0).rank, kontsevich(d)
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    graph = diagrams._state_graph(spec)
    states, kept, sha = len(graph.moves), sum(map(len, graph.moves)), digest(graph)
    tracemalloc.start()
    graph = diagrams._build_graph(spec)  # past the cache, so that it is built again
    size, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"p2:{d} s = 0: rank {rank}, N_{d} = {expected}; {states} live states, "
          f"{kept} kept moves, digest {sha}; {seconds:.1f} s, peak RSS {peak_mb:.0f} MB; "
          f"graph traced {size / 2**20:.1f} MB, build peak {peak / 2**20:.1f} MB", flush=True)
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
