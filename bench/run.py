"""Run one workload of the distshift benchmark and print its metrics.

    python3 bench/run.py --workload experiment --seed 1 --seconds 25 --trace 0

Run from the repository root or anywhere else: the library is imported
from ``src/`` next to this directory, never from an installed copy. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
provenance. With ``--trace 0`` the metrics are the end-to-end ones
(setup_s, items_per_s, peak_rss_mb); with ``--trace 1`` they are the
per-layer ones, and spans are written to ``bench/out/``. Every run also
writes its full record there. See bench/README.md.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread everywhere, so the figures measure the program and not the
# scheduler; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Set-ups in fresh interpreters, besides this process's own, per timed run.
SETUP_REPEATS = 6
#: Layers whose self time a traced run reports.
LAYERS = ("distributions", "shift", "measures", "feasible", "experiments")
#: How many failures a run prints to standard error.
SHOWN_ERRORS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["experiment", "audit-default", "audit-collide", "scalar"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


def set_up(name: str, seed: int):
    """Import numpy and the library, make the inputs and warm every layer up."""
    if not (SRC / "distshift" / "__init__.py").is_file():
        sys.exit(f"run.py: no distshift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import distshift

    if Path(distshift.__file__).resolve().parent != SRC / "distshift":
        sys.exit(f"run.py: imported distshift from {distshift.__file__}, not {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    wl.warm_up()
    return wl


def run_round(ops):
    """Run one round; only the operations themselves are timed."""
    results, seconds = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.fn()
        except Exception as exc:  # a crash is a failed operation, not a failed run
            result = exc
        seconds.append(time.perf_counter() - start)
        results.append(result)
    return results, seconds


class Ledger:
    """Operation outcomes. The first output of each key is checked against
    the oracles after the loop; later ones must equal it."""

    def __init__(self, wl):
        self.wl = wl
        self.first: dict = {}
        self.ops_of: dict = {}
        self.errors: dict[int, list[str]] = {}
        self.attempted = 0

    def record(self, key, result) -> None:
        op_id = self.attempted
        self.attempted += 1
        self.ops_of.setdefault(key, []).append(op_id)
        if isinstance(result, Exception):
            self.errors[op_id] = [f"raised {type(result).__name__}: {result}"]
            return
        summary = self.wl.summarize(key, result)
        if key not in self.first:
            self.first[key] = summary
        elif not self.wl.same(summary, self.first[key]):
            self.errors[op_id] = ["output differs from the first run of the same input"]

    def verify(self) -> None:
        for key, summary in self.first.items():
            errs = self.wl.check(key, summary)
            if errs:
                for op_id in self.ops_of[key]:
                    self.errors.setdefault(op_id, []).extend(errs)

    def failed_keys(self) -> set:
        return {key for key, ids in self.ops_of.items() if any(i in self.errors for i in ids)}


def measure(wl, seconds: float, tracer=None):
    """Run whole rounds until the timed operations add up to ``seconds``.

    Returns the ledger, the items in one round, the time of each
    operation of every untraced (False) and traced (True) round, and the
    timed seconds. In a traced run every other round is traced, so that
    the traced and untraced figures come from the same stretch of time.
    """
    ledger = Ledger(wl)
    op_seconds = {False: [], True: []}
    timed = 0.0
    rounds = 0
    while timed < seconds or rounds < (2 if tracer else 1):
        ops = wl.round()
        items = sum(op.items for op in ops)
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            with tracer.patched(wl.patches()), tracer.span("bench.round") as counts:
                results, secs = run_round(ops)
                counts["items"] = items
        else:
            results, secs = run_round(ops)
        op_seconds[traced].append(secs)
        timed += sum(secs)
        rounds += 1
        for op, result in zip(ops, results):
            ledger.record(op.key, result)
    return ledger, items, op_seconds, timed


def items_per_s(wl, items: int, rounds: list) -> float:
    """Items in one round over the sum of the round's operation times.

    Every round runs the same kinds of operation in the same order, so
    position i of every round is the same work, and the workload's
    ``op_time`` sums up its times over the run.
    """
    return items / sum(wl.op_time(times) for times in zip(*rounds))


def setup_samples(args) -> list[float]:
    """Set-up times of fresh interpreters running this workload's set-up."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"run.py: set-up child failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def git_commit(root: Path):
    """Commit of the checkout, read from .git without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def unit_of(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np
    import distshift

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer("loop")
    ledger, items, op_seconds, timed = measure(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ledger.verify()
    failed = len(ledger.errors)
    unexpected = ledger.failed_keys() - wl.known_faults
    correct = not unexpected
    OUT.mkdir(exist_ok=True)

    if args.trace:
        import probe
        from workloads import scalar_inputs

        probe_tracer = spans.Tracer("probe")
        per_layer = probe.run_probe(probe_tracer, args.seed, scalar_inputs(args.seed))
        self_times = [tracer.self_times(), probe_tracer.self_times()]
        for layer in LAYERS:
            per_layer[f"{layer}.self_s"] = sum(t.get(layer, 0.0) for t in self_times)
        per_layer["trace.overhead_pct"] = 100.0 * (
            items_per_s(wl, items, op_seconds[False])
            / items_per_s(wl, items, op_seconds[True]) - 1.0)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        span_count = spans.write_spans(span_file, [tracer, probe_tracer])
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(per_layer.items())}
        extra = {"spans": span_count, "span_file": str(span_file.relative_to(ROOT)),
                 "untraced_op_seconds": op_seconds[False],
                 "traced_op_seconds": op_seconds[True]}
    else:
        setups = [setup_s] + setup_samples(args)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": items_per_s(wl, items, op_seconds[False]), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        extra = {"setup_samples": setups, "op_seconds": op_seconds[False]}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "distshift": distshift.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
    }
    result = {"correct": correct, "attempted": ledger.attempted, "failed": failed,
              "metrics": metrics}
    errors = {str(i): e for i, e in sorted(ledger.errors.items())}
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, "result": result,
                                  "timed_s": timed, "errors": errors, **extra}, indent=1))
    for op_id, errs in list(errors.items())[:SHOWN_ERRORS]:
        print(f"operation {op_id} failed: {errs[0]}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
