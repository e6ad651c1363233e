"""Benchmark of periodcalc: time to a checked verdict on three workloads.

    python3 perfbench/run.py --workload main1-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; periodcalc is imported from the
checkout's src/.  One caller sends one operation at a time (a closed loop)
and runs a count of whole rounds of operations, sized so that the run takes
about --seconds on the reference machine.  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics, which are the
end-to-end metrics with --trace 0 and the per-layer metrics of a traced run
with --trace 1.  See README.md for the workloads and the metrics.
"""

# Only these are imported before set-up is timed: every other module,
# periodcalc's stdlib dependencies included, is imported where it is used.
import math
import os
import sys
import time

MIN_VERDICTS = 100
SETUP_SAMPLES = 7
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
USAGE = ("usage: run.py --workload {main1-sweep,relation-replay,cli-cold} "
         "--seed N --seconds N --trace {0,1}")


def parse_args(argv: list) -> dict:
    # no argparse: the CLI under test imports it, and its import belongs
    # to the measured set-up
    opts = {"--workload": None, "--seed": "0", "--seconds": "10",
            "--trace": "0", "--setup-sample": None}
    it = iter(argv)
    for key in it:
        if key == "--setup-sample":
            opts[key] = True
        elif key in opts:
            opts[key] = next(it, "")
        else:
            raise ValueError(f"unknown argument {key!r}")
    if opts["--workload"] not in ("main1-sweep", "relation-replay", "cli-cold"):
        raise ValueError("--workload is missing or unknown")
    if opts["--trace"] not in ("0", "1"):
        raise ValueError("--trace must be 0 or 1")
    return {"workload": opts["--workload"], "seed": int(opts["--seed"]),
            "seconds": float(opts["--seconds"]), "trace": opts["--trace"] == "1",
            "setup_sample": bool(opts["--setup-sample"])}


class Tally:
    """Latencies and outcomes of the verdicts of a run."""

    def __init__(self):
        self.latencies = []
        self.attempted = self.failed = 0
        self.wrong = []

    def run(self, wl, ops):
        for op in ops:
            start = time.perf_counter()
            try:
                out = wl.execute(op)
            except Exception as exc:  # an operation that raises is a verdict too
                out = exc
            self.latencies.append(time.perf_counter() - start)
            try:
                error = (f"raised {out!r}" if isinstance(out, Exception)
                         else wl.check(op, out))
            except Exception as exc:  # output of an unexpected shape
                error = f"unreadable output: {exc!r}"
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if not op.get("fault"):
                    self.wrong.append(error)


def setup(args: dict, workdir: str):
    """Import periodcalc, generate the first round and warm up.

    Returns the workload, the first round and the seconds this took."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import periodcalc
    if not os.path.abspath(periodcalc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"periodcalc was imported from {periodcalc.__file__}")
    import workloads
    wl = workloads.make(args["workload"], args["seed"], workdir,
                        in_process=args["trace"])
    first = wl.round(0)
    warm = Tally()
    warm.run(wl, wl.warmup())
    if warm.wrong:
        raise RuntimeError(f"warm-up gave a wrong answer: {warm.wrong[0]}")
    return wl, first, time.perf_counter() - start


def setup_sample(args: dict) -> float:
    """The set-up time of a fresh interpreter that does only the set-up."""
    import subprocess
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-sample",
           "--workload", args["workload"], "--seed", str(args["seed"])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1])


def round_count(wl, first: list, seconds: float) -> int:
    """A run is a count of whole rounds: as many as take about `seconds` on
    the reference machine (wl.round_seconds each), at least two and at
    least MIN_VERDICTS operations."""
    return max(2, math.ceil(MIN_VERDICTS / len(first)),
               round(seconds / wl.round_seconds))


def end_to_end(args: dict, wl, first: list, setup_s: float, tally: Tally):
    import resource
    import statistics

    rounds = round_count(wl, first, args["seconds"])
    samples = [setup_s]
    for r in range(rounds):
        tally.run(wl, first if r == 0 else wl.round(r))
        # set-up samples are spread over the run, not taken in one burst
        while len(samples) < 1 + (SETUP_SAMPLES - 1) * (r + 1) // rounds:
            samples.append(setup_sample(args))
    lat_ms = [1000 * x for x in tally.latencies]
    if args["workload"] == "cli-cold":
        rss_kb = wl.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(samples), "s"),
        "verdicts_per_s": (len(lat_ms) / (sum(lat_ms) / 1000), "verdicts/s"),
        "verdict_p50_ms": (statistics.median(lat_ms), "ms"),
        "verdict_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def _fresh_ms(code: str, timed_inside: bool) -> float:
    """Median over five fresh interpreters running code: wall time of the
    process, or the milliseconds it prints itself."""
    import statistics
    import subprocess
    env = dict(os.environ, PYTHONPATH=SRC)
    out = []
    for _ in range(5):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        wall = 1000 * (time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr[-500:])
        out.append(float(proc.stdout) if timed_inside else wall)
    return statistics.median(out)


def per_layer(args: dict, wl, first: list, tally: Tally):
    """Alternate untraced and traced rounds; report the traced layers and
    the overhead of tracing, from the median verdict of each kind of round."""
    from tracer import PER_LAYER, Tracer
    import statistics
    tr = Tracer()
    latencies = {False: [], True: []}
    for r in range(round_count(wl, first, args["seconds"])):
        traced = r % 2 == 1
        before = len(tally.latencies)
        if traced:
            tr.install()
        try:
            tally.run(wl, first if r == 0 else wl.round(r))
        finally:
            tr.uninstall()
        latencies[traced] += tally.latencies[before:]
    values = tr.metrics(len(latencies[True]))
    values["cli.interpreter_ms"] = _fresh_ms("pass", False)
    values["cli.import_ms"] = _fresh_ms(
        "import time; t = time.perf_counter(); import periodcalc; "
        "print(1000 * (time.perf_counter() - t))", True)
    # traced and untraced rounds hold different inputs of the same make-up;
    # their medians compare better than their heavy-tailed totals
    median = {k: statistics.median(v) for k, v in latencies.items()}
    values["trace.overhead_pct"] = 100 * (median[True] / median[False] - 1)
    return {k: (values[k], unit) for k, unit in PER_LAYER.items()}


def main(argv: list) -> int:
    try:
        args = parse_args(argv)
    except ValueError as exc:
        print(f"{USAGE}\nerror: {exc}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "periodcalc")):
        print(f"error: no periodcalc sources under {SRC}", file=sys.stderr)
        return 2
    import shutil
    import tempfile
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        wl, first, setup_s = setup(args, workdir)
        if args["setup_sample"]:
            print(setup_s)
            return 0
        tally = Tally()
        metrics = (per_layer(args, wl, first, tally) if args["trace"]
                   else end_to_end(args, wl, first, setup_s, tally))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import json
    for error in tally.wrong[:5]:
        print(f"wrong: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
