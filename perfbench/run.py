"""shieldlab benchmark: seeded CLI workloads, each in its own child process.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--record FILE]
    python3 perfbench/run.py --compare A.jsonl B.jsonl

Run from anywhere; the library is imported from ``src/`` of the checkout
that holds this file, never from an installed copy. Each child gets only a
config generated from ``--seed`` (see ``workloads.py``) and runs it through
``shieldlab.cli.main``. Children run one after another (a closed loop with
one client) until ``--seconds`` have passed, and every metric is the median
over the children of the run.

``--trace 0`` reports the end-to-end metrics of untraced children.
``--trace 1`` alternates traced and untraced children on the same configs
and reports the per-layer metrics of ``tracing.py`` plus the tracing
overhead. The last line of standard output is the JSON result; the lines
before it give every metric with its unit, quartiles and sample count, and
the numeric environment. ``--record`` appends the run to a JSON-lines file
that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import GENERATORS, Job  # noqa: E402

# BLAS threads for every child. Fixed so that runs on one machine compare;
# OpenBLAS otherwise starts one thread per core it sees.
BLAS_THREADS = 2
SETUP_PROBES = 5      # setup-only children per run, on top of each job's own setup
MIN_JOBS = 3          # measured children per run even if --seconds is short
CHILD_TIMEOUT = 150.0
MARGIN_CAP = 16.0     # margin_digits when the verdict statistic is exactly 0
LABEL_COLUMNS = {"sector", "observable"}  # text columns of the conjecture CSV

# End-to-end metrics: name -> (unit, better).
E2E_METRICS = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "margin_digits": ("log10", "higher"),
}
TRACE_METRICS = {
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
PER_LAYER_METRICS = {**tracing.LAYER_METRICS, **TRACE_METRICS}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    """One finished child process, measured by the parent."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    stdout: str
    stderr: str


def blas_threads() -> int:
    return min(BLAS_THREADS, len(os.sched_getaffinity(0)))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    threads = str(blas_threads())
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


def spawn(argv: list[str], workdir: Path, env: dict) -> Child:
    """Run one child to exit; rusage comes from its own ``wait4`` status.

    ``getrusage(RUSAGE_CHILDREN)`` would be a high-water mark over every
    child so far, so one large workload would hide the peaks of later ones.
    """
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = _now()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        end = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    setup_s = None
    for line in stdout.splitlines():
        if line.startswith("PERFBENCH_READY "):
            setup_s = float(line.split()[1]) - start
    return Child(
        code=proc.returncode,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        setup_s=setup_s,
        stdout=stdout,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def margin_digits(statistic: float, tol: float) -> float:
    """Decimal digits between a verdict statistic and its tolerance."""
    if statistic <= 0.0:
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tol / statistic))


def check_csv(path: Path, expected_rows: int, row_filter: str | None) -> str | None:
    """Why the CSV is wrong, or None: row count and finiteness of every value."""
    if not path.is_file():
        return f"{path.name} missing"
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    if row_filter is None:
        count = len(rows)
    else:
        k = header.index("sector")
        count = sum(row[k] == row_filter for row in rows)
    if count != expected_rows:
        return f"{path.name}: {count} rows, expected {expected_rows}"
    for row in rows:
        for column, cell in zip(header, row):
            if column in LABEL_COLUMNS:
                continue
            try:
                value = float(cell)
            except ValueError:
                return f"{path.name}: {column}={cell!r} is not a number"
            if not math.isfinite(value):
                return f"{path.name}: {column}={cell!r} is not finite"
    return None


def check_job(job: Job, child: Child, outs: list[Path]) -> tuple[str | None, float | None]:
    """(failure reason or None, margin_digits or None) for one child."""
    verdicts = [json.loads(line[len("VERDICT "):])
                for line in child.stdout.splitlines() if line.startswith("VERDICT ")]
    margins = []
    for inv, verdict in zip(job.invocations, verdicts):
        stats = [verdict.get(k) for k in inv.statistic_keys]
        if all(isinstance(s, (int, float)) for s in stats):
            margins.append(margin_digits(max(stats), inv.tol))
    margin = min(margins) if len(margins) == len(job.invocations) else None
    if child.code != 0:
        return f"exit code {child.code}: {child.stderr.strip()[-300:]}", margin
    if len(verdicts) != len(job.invocations):
        return f"{len(verdicts)} verdicts for {len(job.invocations)} calls", margin
    for inv, verdict, out in zip(job.invocations, verdicts, outs):
        if verdict.get("status") != "pass":
            return f"{inv.experiment} verdict {verdict.get('status')!r}", margin
        reason = check_csv(out / f"{inv.experiment}.csv", inv.expected_rows,
                           inv.row_filter)
        if reason:
            return reason, margin
    if margin is None:
        return "verdict statistic missing", margin
    return None, margin


class Runner:
    """Writes a job's configs and runs it in a fresh child process."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.env = child_env()
        self.count = 0

    def run(self, job: Job, *, setup_only: bool = False,
            trace: bool = False) -> tuple[Child, list[Path], Path | None, Path]:
        self.count += 1
        workdir = self.scratch / f"child{self.count:05d}"
        workdir.mkdir()
        argv = [sys.executable, "-s", str(HERE / "child.py"), "--src", str(SRC)]
        spans = None
        if trace:
            spans = workdir / "spans.json"
            argv += ["--trace", str(spans), "--run-id", str(job.index)]
        if setup_only:
            argv.append("--setup-only")
        outs = []
        for k, inv in enumerate(job.invocations):
            config = workdir / f"config{k}.json"
            config.write_text(json.dumps(inv.config, indent=1), encoding="utf-8")
            out = workdir / f"out{k}"
            outs.append(out)
            argv += [inv.experiment, str(config), str(out)]
        return spawn(argv, workdir, self.env), outs, spans, workdir


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (med, med, med))
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scratch: Path) -> dict:
    """Run one workload for ``seconds`` and return its result record."""
    generate = GENERATORS[workload]
    runner = Runner(scratch)

    def discard(workdir: Path) -> None:
        shutil.rmtree(workdir, ignore_errors=True)

    # Warm-up: compiles the library's bytecode and pages in numpy and BLAS,
    # which a user pays once per install, not per call.
    warm, _, _, workdir = runner.run(generate(seed, 0), setup_only=True)
    discard(workdir)
    env_line = [ln for ln in warm.stdout.splitlines() if ln.startswith("PERFBENCH_ENV ")]
    if warm.code != 0 or not env_line:
        raise RuntimeError(f"warm-up child failed ({warm.code}): {warm.stderr.strip()}")
    environment = json.loads(env_line[0][len("PERFBENCH_ENV "):])
    environment.update(blas_threads=blas_threads(), nproc=os.cpu_count(),
                       affinity=len(os.sched_getaffinity(0)))

    samples: dict[str, list[float]] = {}
    attempted = failed = 0

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    deadline = _now() + seconds
    if not trace:
        for k in range(SETUP_PROBES):
            probe, _, _, workdir = runner.run(generate(seed, k), setup_only=True)
            discard(workdir)
            if probe.code == 0 and probe.setup_s is not None:
                add("setup_s", probe.setup_s)
    index = 0
    while index < MIN_JOBS or _now() < deadline:
        job = generate(seed, index)
        # In traced runs each config runs twice, traced and untraced, in an
        # order that alternates so that drift falls on both sides equally.
        modes = [False] if not trace else ([True, False] if index % 2 else [False, True])
        for traced in modes:
            child, outs, spans, workdir = runner.run(job, trace=traced)
            reason, margin = check_job(job, child, outs)
            attempted += 1
            if reason:
                failed += 1
                print(f"FAILED {workload} seed={seed} job={index}"
                      f"{' traced' if traced else ''}: {reason}", file=sys.stderr)
            if not trace:
                add("wall_s", child.wall_s)
                add("cpu_s", child.cpu_s)
                add("peak_rss_mb", child.peak_rss_mb)
                if child.setup_s is not None:
                    add("setup_s", child.setup_s)
                add("margin_digits", margin if margin is not None else 0.0)
            elif traced:
                add("trace.wall_s", child.wall_s)
                if spans is not None and spans.is_file():
                    records = json.loads(spans.read_text(encoding="utf-8"))
                    for name, value in tracing.layer_metrics(records).items():
                        add(name, value)
            else:
                add("trace.untraced_wall_s", child.wall_s)
            discard(workdir)
        index += 1

    table = PER_LAYER_METRICS if trace else E2E_METRICS
    metrics = {}
    for name, (unit, _) in table.items():
        if name in ("trace.overhead_s", "trace.overhead_frac"):
            continue
        metrics[name] = {**summarize(samples.get(name, [0.0])), "unit": unit}
    if trace:
        traced_med = metrics["trace.wall_s"]["value"]
        plain_med = metrics["trace.untraced_wall_s"]["value"]
        n = metrics["trace.wall_s"]["n"]
        for name, value in (("trace.overhead_s", traced_med - plain_med),
                            ("trace.overhead_frac", traced_med / plain_med - 1.0)):
            metrics[name] = {"value": value, "q1": value, "q3": value, "n": n,
                             "unit": table[name][0]}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment, "correct": failed == 0,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }


def print_record(rec: dict) -> None:
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"environment={json.dumps(rec['environment'], sort_keys=True)}")
    for name, m in rec["metrics"].items():
        print(f"{rec['workload']:<18} {name:<34} {m['value']:>14.6g} {m['unit']:<6}"
              f" q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
    frac = rec["failed"] / rec["attempted"]
    print(f"{rec['workload']:<18} {'failed_frac':<34} {frac:>14.6g} {'ratio':<6}"
          f" failed={rec['failed']} n={rec['attempted']}")


def result_line(records: list[dict]) -> str:
    """The contract's last line: bare metric names for one workload, else prefixed."""
    single = len(records) == 1
    metrics = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            key = name if single else f"{rec['workload']}.{name}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(path_a: str, path_b: str) -> None:
    """Per workload and metric: each side's median and quartiles over runs,
    the ratio of medians B/A, and wins of B over A among runs paired by seed."""
    sides = [load_records(path_a), load_records(path_b)]
    keys = sorted({(r["workload"], r["trace"]) for side in sides for r in side})
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<18} {'metric':<34} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'B/A':>8} {'B wins':>8}")
    for workload, trace in keys:
        runs = [{r["seed"]: r for r in side
                 if r["workload"] == workload and r["trace"] == trace} for side in sides]
        table = PER_LAYER_METRICS if trace else E2E_METRICS
        for name, (unit, better) in table.items():
            cols = []
            for side in runs:
                values = [r["metrics"][name]["value"] for r in side.values()
                          if name in r["metrics"]]
                cols.append(summarize(values) if values else None)
            if not all(cols):
                continue
            a, b = cols
            ratio = b["value"] / a["value"] if a["value"] else math.nan
            paired = sorted(set(runs[0]) & set(runs[1]))
            wins = 0
            for seed in paired:
                va = runs[0][seed]["metrics"][name]["value"]
                vb = runs[1][seed]["metrics"][name]["value"]
                wins += (vb < va) if better == "lower" else (vb > va)
            fmt = "{value:.4g} [{q1:.4g}, {q3:.4g}] n={n}"
            print(f"{workload:<18} {name:<34} {fmt.format(**a):>32} "
                  f"{fmt.format(**b):>32} {ratio:>8.3f} {wins:>4}/{len(paired):<3} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append each run to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --record files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not (SRC / "shieldlab" / "cli.py").is_file():
        print(f"error: no shieldlab source tree at {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    records = []
    try:
        for name in names:
            rec = measure(name, args.seed, args.seconds, bool(args.trace), scratch)
            records.append(rec)
            print_record(rec)
            if args.record:
                with open(args.record, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    print(result_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
