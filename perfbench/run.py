"""gwfloor benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (perfbench/worker.py), so the
program's lru caches start cold as they do for a command line user, and
every answer is checked against an independent reference.  Repetitions
run one after another, closed-loop, while the next one should end by
about S seconds; there is always at least one.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the repetitions.  The times are rescaled to a reference host speed that
the worker samples during each timed interval (worker.SpeedProbe), because
this host's own speed drifts by more than any bound a raw time could
carry; the raw medians are printed beside them.  --trace 1 alternates traced and untraced repetitions
and reports the per-layer metrics of the traced repetition with the
median wall time, plus the tracing overhead against the untraced median.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The lines before it print every metric with its unit,
and failed_frac.  The full record (samples, failed checks, nproc, Python
version, git commit) and the span list of a traced run go to .bench_out/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "gwfloor")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("table-p1xp1-2-5", "count-p2-5-s0", "verify-oracles", "smoke-p2-3")
SETUP_PROBES = 15         # import-only interpreters per run, for setup_s
DEADLINE_S = 170          # every run exits well inside 180 s


class Worker:
    """Starts worker interpreters and collects their records."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.n = 0

    def __call__(self, *args):
        """Run one worker; return (record or None, return code, seconds)."""
        self.n += 1
        result = os.path.join(self.workdir, f"rep{self.n}", "result.json")
        os.makedirs(os.path.dirname(result))
        started = time.monotonic()
        try:
            code = subprocess.run(
                [sys.executable, WORKER, *args, "--result", result],
                stdout=sys.stderr, timeout=max(1.0, self.deadline - started),
            ).returncode
        except subprocess.TimeoutExpired:
            code = None
        took = time.monotonic() - started
        try:
            with open(result) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None, code, took
        record["setup_raw_s"] = record["imported_at"] - started
        record["setup_s"] = record["setup_raw_s"] * record["setup_factor"]
        return record, code, took


def rep_checks(record, code):
    """The record's own checks plus the ones about the process itself."""
    checks = [] if record is None else [tuple(c) for c in record.get("checks", [])]
    checks.append(("exit_code", code == 0 and record is not None))
    if record is not None:
        package = os.path.dirname(record["package"])
        checks.append(("package_from_checkout",
                       os.path.samefile(package, SRC_PACKAGE)))
    return checks


def failed_frac(checks):
    """Failed checks over checks attempted."""
    return sum(1 for _, ok in checks if not ok) / len(checks)


def git_commit():
    """The checkout's commit, read from .git without running git (which
    would search the parent directories of a checkout that is not a
    repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seed, seconds, trace):
    """Run the repetitions; return (metrics, checks, record for .bench_out)."""
    t_start = time.monotonic()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    worker = Worker(workdir, t_start + DEADLINE_S)
    checks, setups, raw_setups = [], [], []
    try:
        # Warm-up: writes the byte-code caches an installed package would have.
        record, code, _ = worker()
        checks += rep_checks(record, code)
        for _ in range(SETUP_PROBES):
            record, code, _ = worker()
            checks += rep_checks(record, code)
            if record is not None:
                setups.append(record["setup_s"])
                raw_setups.append(record["setup_raw_s"])
        rep_args = ["--workload", workload, "--seed", str(seed)]
        kinds = (["--trace"], []) if trace else ([],)
        plain, traced = [], []
        while True:
            took = 0.0
            for extra in kinds:
                record, code, t = worker(*rep_args, *extra)
                took += t
                checks += rep_checks(record, code)
                if record is None:
                    continue
                setups.append(record["setup_s"])
                raw_setups.append(record["setup_raw_s"])
                if extra:
                    traced.append(record)
                else:
                    plain.append(record)
            # Start another repetition only if it should end by about
            # `seconds`; the deadline keeps a slow host inside 180 s.
            elapsed = time.monotonic() - t_start
            if elapsed + 0.8 * took > seconds or elapsed + 2 * took > DEADLINE_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, raw, absent, spans = {}, {}, [], None
    if plain:
        for key in ("wall_ref_s", "cpu_ref_s", "peak_rss_mb"):
            metrics[key] = statistics.median(r[key] for r in plain)
        for key in ("wall_s", "cpu_s", "speed_factor"):
            raw[key] = statistics.median(r[key] for r in plain)
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        raw["setup_raw_s"] = statistics.median(raw_setups)
    if traced:
        layer_counts = [{k: v for k, v in r["layers"].items()
                         if not k.endswith("_s")} for r in traced]
        checks.append(("trace_counts_repeat",
                       all(c == layer_counts[0] for c in layer_counts)))
        # The traced repetition with the (lower) median wall time.
        chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        metrics.update(chosen["layers"])
        absent, spans = chosen["absent"], chosen["spans"]
        if plain:
            metrics["trace.untraced_wall_s"] = raw["wall_s"]
            metrics["trace.overhead_s"] = chosen["wall_s"] - raw["wall_s"]
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "commit": git_commit(), "absent": absent, "raw": raw,
        "samples": {**{key: [r[key] for r in plain]
                       for key in ("wall_ref_s", "cpu_ref_s", "peak_rss_mb",
                                   "wall_s", "cpu_s", "speed_factor")},
                    "setup_s": setups, "setup_raw_s": raw_setups,
                    "traced_wall_s": [r["wall_s"] for r in traced]},
        "failed_checks": [name for name, ok in checks if not ok],
    }
    if spans is not None:
        with open(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json"), "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": spans}, fh)
    return metrics, checks, detail


def load_metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    return config["per_layer" if trace else "end_to_end"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"error: no gwfloor sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2
    specs = load_metric_specs(args.trace)
    metrics, checks, detail = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    failed = sum(1 for _, ok in checks if not ok)
    detail["failed_frac"] = failed_frac(checks)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({**detail, "metrics": metrics}, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(detail['samples']['wall_s'])}+"
          f"{len(detail['samples']['traced_wall_s'])} traced "
          f"nproc={detail['nproc']} python={detail['python']} "
          f"commit={detail['commit'][:12]}")
    out = {}
    for spec in specs:
        value = metrics.get(spec["name"])
        if value is None:
            # A layer the program no longer has, or no successful run:
            # reported as 0 and named here.
            print(f"{spec['name']:40s} absent")
            value = 0
        else:
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"{spec['name']:40s} {shown} {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(f"{'failed_frac':40s} {detail['failed_frac']:.6g} ratio "
          f"({failed}/{len(checks)} checks)")
    if not args.trace:
        # The measured times before rescaling, for reading, not judging.
        for key, value in detail["raw"].items():
            unit = "ratio" if key == "speed_factor" else "s"
            print(f"{'raw ' + key:40s} {value:.6g} {unit}")
    for check in detail["failed_checks"]:
        print(f"FAILED {check}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
