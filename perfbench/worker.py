"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --result FILE [--trace]
    python3 perfbench/worker.py --result FILE      (import only, for setup_s)

`gwfloor` is imported before anything else, so the parent can take the
set-up time as the moment the import returned minus the moment it
started this process (both on the system-wide monotonic clock).  The
worker then runs the workload, checks every answer against a reference
that does not share the program's code path, and writes one JSON record:
the checks, wall and CPU time from the first library call to the
verified result, and the peak RSS of its process tree.

The host's speed drifts by a third or more over seconds to minutes, in
phases longer than a repetition, so every untraced timing is also given
rescaled to a reference speed (see `SpeedProbe`).
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import gwfloor  # noqa: E402
IMPORTED_AT = time.monotonic()

import gwfloor.cli  # noqa: E402
import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

# -- host speed --------------------------------------------------------
CAL_ITERS = 2000          # one sample: about 0.2 ms of interpreter work
CAL_REF_S = 0.0002        # CPU seconds of one sample at the reference speed
SAMPLE_EVERY_S = 0.02     # sampling period during a timed interval
EDGE_SAMPLES = 25         # samples right after the import and after the run


def _cal_loop(n):
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class SpeedProbe:
    """Samples the host's speed with a fixed interpreter loop.

    `sample()` times `_cal_loop(CAL_ITERS)` on this thread's CPU clock, so
    time the process spends descheduled does not count; what remains is
    how fast this core runs interpreter code at that moment.  Inside
    `with probe:` a SIGALRM samples every `SAMPLE_EVERY_S` of wall time.
    `factor()` is the mean of reference over measured time per sample, the
    ratio that rescales a time measured over the sampled interval to the
    reference speed.  Sampling costs about 1% of the interval; the caller
    subtracts `wall_s` and `cpu_s` of the samples it took.

    The thread CPU clock can read the same before and after a sample, so
    samples that did not advance it are dropped, and the fastest and the
    slowest tenth (interrupts, clock glitches) are left out of the mean.
    """

    def __init__(self):
        self.cpu = []                  # thread CPU seconds per sample
        self.wall_s = 0.0              # wall time spent sampling
        self.cpu_s = 0.0               # CPU time spent sampling

    def sample(self, *_):
        w0, c0 = time.perf_counter(), time.thread_time()
        _cal_loop(CAL_ITERS)
        c1, w1 = time.thread_time(), time.perf_counter()
        self.cpu.append(c1 - c0)
        self.wall_s += w1 - w0
        self.cpu_s += c1 - c0

    def samples(self, n):
        for _ in range(n):
            self.sample()

    def factor(self):
        cpu = sorted(c for c in self.cpu if c > 0)
        trim = len(cpu) // 10
        kept = cpu[trim:len(cpu) - trim]
        return sum(CAL_REF_S / c for c in kept) / len(kept)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

# -- reference values --------------------------------------------------
# Published p1xp1:2,5 block: s -> (h, beta_1..beta_s, <1>).
TABLE_SPEC = "p1xp1:2,5"
TABLE_ROWS = {
    0: (1280, (), 1280),
    1: (1280, (256,), 768),
    2: (1280, (160, 48), 448),
    3: (1280, (96, 32, 8), 256),
    4: (1280, (56, 20, 6, 1), 144),
    5: (1280, (32, 12, 4, 1, 0), 80),
    6: (1280, (16, 8, 2, 1, 0, 0), 48),
}
TABLE_RANK = 3840
# Merged-diagram classes per row; an optimisation must keep them identical.
TABLE_CLASSES = (1686, 1361, 1094, 866, 649, 513, 405)

# Kontsevich's N_5 and Welschinger's W_5 for plane quintics.
QUINTIC_RANK = 87304
QUINTIC_SIGNATURE = 18264
QUINTIC_CLASSES = 25871

# Invariant set for verify-oracles.  The published bl2:4,1,1 row is wrong
# (README, "Known discrepancy") and is never used as a reference.
ORACLE_SPECS = (
    "p2:2", "p2:3", "p1xp1:2,2", "p1xp1:2,3", "bl1:3,1", "bl1:4,2",
    "bl2:4,2,2", "bl2:4,2,1", "bl2:4,1,1", "bl3:3,1,1,1", "bl3:4,1,1,2",
    "p2:4", "p1xp1:2,4",
)
# The verify command's merge-invariance checks: all placements.
ORACLE_FULL_INVARIANCE = (("p2:3", 2), ("p1xp1:2,2", 2))
# Seeded merge-position invariance: random placements per s on this spec.
PLACEMENT_SPEC = "p2:4"
PLACEMENT_S = (1, 2, 3)
PLACEMENTS_PER_S = 3

# Smoke workload for the benchmark's own tests: all rows of p2:3.
SMOKE_SPEC = "p2:3"
SMOKE_ROWS = {
    0: (2, (), 8),
    1: (2, (1,), 6),
    2: (2, (1, 0), 4),
    3: (2, (1, 0, 0), 2),
    4: (2, (1, 0, 0, 0), 0),
}
SMOKE_RANK = 12


# -- workloads ---------------------------------------------------------
# Each takes (seed, workdir) and returns [(check name, passed), ...].

def table_p1xp1(seed, workdir, rows=TABLE_ROWS, rank=TABLE_RANK,
                classes=TABLE_CLASSES):
    """The published table through the command line entry point."""
    out = os.path.join(workdir, "table.json")
    code = gwfloor.cli.main(["table", TABLE_SPEC, "--format", "json", "--out", out])
    checks = [("exit_code", code == 0)]
    if code != 0:
        return checks
    with open(out) as fh:
        records = json.load(fh)
    checks.append(("row_count", len(records) == len(rows)))
    for rec in records:
        s = rec["s"]
        want = rows.get(s)
        checks.append((f"row_s{s}",
                       want is not None and
                       (rec["h"], tuple(rec["beta"]), rec["c0"]) == want))
        checks.append((f"rank_s{s}", rec["rank"] == rank))
        checks.append((f"classes_s{s}",
                       s < len(classes) and rec["classes"] == classes[s]))
    return checks


def count_p2_5_s0(seed, workdir):
    """The largest diagram set: all plane quintics, no conjugate pairs."""
    res = gwfloor.count(gwfloor.parse_degree("p2:5"), 0)
    form = res.beta_form
    return [
        ("rank", res.rank == QUINTIC_RANK),
        ("signature_all_positive", res.signature_all_positive == QUINTIC_SIGNATURE),
        ("signature_all_negative", res.signature_all_negative == QUINTIC_SIGNATURE),
        ("beta_form", (form.h_coeff, form.beta_coeffs, form.one_coeff) ==
         ((QUINTIC_RANK - QUINTIC_SIGNATURE) // 2, (), QUINTIC_SIGNATURE)),
        ("classes", res.class_count == QUINTIC_CLASSES),
    ]


def placements(n, s, rng, k):
    """k distinct random sets of s disjoint adjacent 0-based position pairs."""
    seen, out = set(), []
    while len(out) < k:
        starts = sorted(rng.sample(range(n - s), s))
        pairs = tuple((a + i, a + i + 1) for i, a in enumerate(starts))
        if pairs not in seen:
            seen.add(pairs)
            out.append(pairs)
    return out


def verify_oracles(seed, workdir):
    """Fixed invariant set, called through the library, plus seeded
    merge-position invariance."""
    from gwfloor.degrees import n_delta
    checks = []
    for spec_str in ORACLE_SPECS:
        spec = gwfloor.parse_degree(spec_str)
        report = gwfloor.verify_rank_and_signatures(spec)
        for key in ("rank_constant", "signature_constant",
                    "shustin_matches_one_coeff", "rank_matches_kontsevich"):
            if key in report:
                checks.append((f"{spec_str}:{key}", report[key] is True))
        for s in range(1, n_delta(spec) // 2 + 1):
            checks.append((f"{spec_str}:square_substitution_s{s}",
                           gwfloor.verify_square_substitution(spec, s) is True))
    for spec_str, s_max in ORACLE_FULL_INVARIANCE:
        spec = gwfloor.parse_degree(spec_str)
        for s in range(1, s_max + 1):
            checks.append((f"{spec_str}:merge_invariance_s{s}",
                           gwfloor.verify_merge_invariance(spec, s) is True))
    spec = gwfloor.parse_degree(PLACEMENT_SPEC)
    rng = random.Random(seed)
    for s in PLACEMENT_S:
        baseline = gwfloor.count(spec, s).total
        for pairs in placements(n_delta(spec), s, rng, PLACEMENTS_PER_S):
            total = gwfloor.count(spec, s, list(pairs)).total
            checks.append((f"{PLACEMENT_SPEC}:placement{pairs}",
                           gwfloor.equals_mod(total, baseline)))
    return checks


def smoke_p2_3(seed, workdir, rows=SMOKE_ROWS, rank=SMOKE_RANK):
    """All rows of the cubic: seconds, for the benchmark's own tests."""
    spec = gwfloor.parse_degree(SMOKE_SPEC)
    checks = []
    for s, want in rows.items():
        res = gwfloor.count(spec, s)
        form = res.beta_form
        checks.append((f"row_s{s}",
                       (form.h_coeff, form.beta_coeffs, form.one_coeff) == want))
        checks.append((f"rank_s{s}", res.rank == rank))
    return checks


WORKLOADS = {
    "table-p1xp1-2-5": table_p1xp1,
    "count-p2-5-s0": count_p2_5_s0,
    "verify-oracles": verify_oracles,
    "smoke-p2-3": smoke_p2_3,
}


def _cpu_and_rss():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0   # KiB -> MiB


def run(workload, seed, workdir, trace=False, setup_factor=None):
    """Run one repetition in this process and return its record.

    Untraced, the host's speed is sampled during the run and right after
    it; `wall_s` and `cpu_s` leave out the time the sampling took, and
    `wall_ref_s` and `cpu_ref_s` are them rescaled to the reference speed.
    Traced, nothing is sampled, because the samples would land in the
    spans.
    """
    tracer = None
    if trace:
        from layers import Tracer
        tracer = Tracer(gwfloor)
        tracer.install()
    fn = WORKLOADS[workload]
    probe = SpeedProbe()
    cpu0, _ = _cpu_and_rss()
    t0 = time.perf_counter()
    try:
        if trace:
            checks = fn(seed, workdir)
        else:
            with probe:
                checks = fn(seed, workdir)
    except Exception:
        traceback.print_exc()
        checks = [("exception", False)]
    wall = time.perf_counter() - t0
    cpu1, rss = _cpu_and_rss()
    record = {
        "workload": workload, "seed": seed, "imported_at": IMPORTED_AT,
        "setup_factor": setup_factor,
        "package": os.path.abspath(gwfloor.__file__),
        "wall_s": wall - probe.wall_s, "cpu_s": cpu1 - cpu0 - probe.cpu_s,
        "peak_rss_mb": rss,
        "checks": [[name, bool(ok)] for name, ok in checks],
    }
    if not trace:
        probe.samples(EDGE_SAMPLES)
        factor = probe.factor()
        record.update(speed_factor=factor, speed_samples=len(probe.cpu),
                      wall_ref_s=record["wall_s"] * factor,
                      cpu_ref_s=record["cpu_s"] * factor)
    if tracer is not None:
        record["layers"] = tracer.summary(wall)
        record["absent"] = sorted(set(tracer.absent))
        record["spans"] = tracer.spans
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="omit to measure only the import")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    # The speed right after the import rescales the set-up time.
    probe = SpeedProbe()
    probe.samples(EDGE_SAMPLES)
    if args.workload is None:
        record = {"imported_at": IMPORTED_AT, "setup_factor": probe.factor(),
                  "package": os.path.abspath(gwfloor.__file__)}
    else:
        record = run(args.workload, args.seed,
                     os.path.dirname(os.path.abspath(args.result)), args.trace,
                     setup_factor=probe.factor())
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
