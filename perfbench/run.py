"""Benchmark of the ``evidential`` command line, one cold process at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation starts fresh ``evidential`` processes (``perfbench/child.py``
imports ``evidential.cli`` from ``src/`` and calls ``main(argv)``, as the
console script does) and waits for each before starting the next: a closed
loop with one client.  Operations repeat until ``--seconds`` have passed,
after one unmeasured warm-up invocation that fills ``__pycache__`` and the
file cache.  Every output is checked against ``oracle.py``; a non-zero
exit, a traceback or a failed check counts the operation as failed.

``--trace 0`` reports the end-to-end metrics (medians over operations);
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics from ``tracer.py`` and ``python -X importtime``.  The
last line of standard output is the JSON result; the lines before it give
the provenance, the input profile and each metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import inputs
import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "evidential"
CHILD = HERE / "child.py"
SUSPECT = PACKAGE_DIR / "data" / "suspect_studies.csv"
REFERENCE = PACKAGE_DIR / "data" / "reference_studies.csv"

SCREEN_PAPER_STUDIES = 50_000
SCREEN_EXACT_STUDIES = 3_000
SIM_ARGS = ["--n", "20", "--sigma", "1,1,1", "--v", "2"]
SIM_REPS = 100_000
WARMUP_REPS = 1_000
IMPORT_PROBES = 3
PROCESS_TIMEOUT_S = 100

UNITS = {"items_per_s": "1/s", "peak_rss_mb": "MB", "cli.output_bytes": "bytes"}


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    per = re.search(r"calls_per_(\w+)$", metric)
    return f"calls/{per[1]}" if per else "count"


@dataclass
class Invocation:
    argv: list
    check: Callable[[str], list]  # stdout text -> problems found


@dataclass
class Op:
    """Cost and problems of one operation, summed over its processes."""

    wall: float = 0.0
    setup: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    output_bytes: int = 0
    problems: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)


def _ledger_check(kind, rows, refs, published=None):
    check = oracle.check_table if kind == "table" else oracle.check_json
    return lambda text: check(text, rows, refs, published)


def _profile(rows, refs):
    shares = oracle.regime_shares(refs)
    shares["quotient_n"] = sum("/" in r.n for r in rows) / len(rows)
    return {"studies": len(rows), "shares": {k: round(v, 4) for k, v in shares.items()}}


class ColdStart:
    """threshold, then compute on the bundled corpora in three forms."""

    def __init__(self, seed, work):
        s_rows = inputs.read_csv(SUSPECT.read_text(encoding="utf-8"))
        r_rows = inputs.read_csv(REFERENCE.read_text(encoding="utf-8"))
        s_paper = [oracle.reference(r, "paper") for r in s_rows]
        r_paper = [oracle.reference(r, "paper") for r in r_rows]
        r_exact = [oracle.reference(r, "exact") for r in r_rows]
        self.checks = (
            _ledger_check("table", s_rows, s_paper, oracle.PUBLISHED_SUSPECT),
            _ledger_check("json", r_rows, r_paper, oracle.PUBLISHED_REFERENCE),
            _ledger_check("table", r_rows, r_exact),
        )
        self.items = len(s_rows) + 2 * len(r_rows)
        self.profile = {
            "suspect paper": _profile(s_rows, s_paper),
            "reference paper": _profile(r_rows, r_paper),
            "reference exact": _profile(r_rows, r_exact),
        }

    def invocations(self, index):
        table, json_, exact = self.checks
        return [
            Invocation(["threshold", "--v", "2"], oracle.check_threshold),
            Invocation(["compute", "--input", str(SUSPECT)], table),
            Invocation(["compute", "--input", str(REFERENCE), "--format", "json"], json_),
            Invocation(["compute", "--input", str(REFERENCE), "--mode", "exact"], exact),
        ]

    def warmup(self):
        return [self.invocations(0)[1]]


class Screen:
    """One compute over a seeded synthetic ledger."""

    def __init__(self, seed, work, mode):
        self.mode = mode
        count, self.fmt = (
            (SCREEN_PAPER_STUDIES, "table") if mode == "paper" else (SCREEN_EXACT_STUDIES, "json")
        )
        rows = inputs.generate(seed, count)
        refs = [oracle.reference(r, mode) for r in rows]
        self.items = count
        self.profile = {f"{mode} mode": _profile(rows, refs)}
        encode, suffix = (inputs.to_csv, "csv") if mode == "paper" else (inputs.to_json, "json")
        self.path = work / f"ledger.{suffix}"
        self.path.write_text(encode(rows), encoding="utf-8")
        self.check = _ledger_check(self.fmt, rows, refs)

    def _compute(self, path, check):
        argv = ["compute", "--input", str(path), "--mode", self.mode, "--format", self.fmt]
        return Invocation(argv, check)

    def invocations(self, index):
        return [self._compute(self.path, self.check)]

    def warmup(self):
        # the same command on the bundled suspect corpus
        rows = inputs.read_csv(SUSPECT.read_text(encoding="utf-8"))
        refs = [oracle.reference(r, self.mode) for r in rows]
        return [self._compute(SUSPECT, _ledger_check(self.fmt, rows, refs))]


class Calibrate:
    """simulate at the README's setting; operation i uses seed + i."""

    def __init__(self, seed, work):
        self.seed = seed % 2**32  # simulate takes non-negative seeds
        self.items = SIM_REPS
        self.profile = {"simulate": {"reps": SIM_REPS, "first seed": self.seed}}

    @staticmethod
    def _invocation(seed, reps):
        argv = ["simulate", *SIM_ARGS, "--reps", str(reps), "--seed", str(seed)]
        return Invocation(argv, lambda text: oracle.check_simulate(text, seed, reps))

    def invocations(self, index):
        return [self._invocation(self.seed + index, SIM_REPS)]

    def warmup(self):
        return [self._invocation(self.seed, WARMUP_REPS)]


# Each workload builds its inputs from (seed, work directory) and gives the
# items of one operation, an input profile, the invocations of operation i
# and the unmeasured warm-up invocations.
WORKLOADS = {
    "cold-start": ColdStart,
    "screen-paper": lambda seed, work: Screen(seed, work, "paper"),
    "screen-exact": lambda seed, work: Screen(seed, work, "exact"),
    "calibrate": Calibrate,
}


def _child_env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_process(inv: Invocation, work: Path, op: Op, spans_path=None):
    """Run one cold process, fold its cost into *op* and check its output."""
    out_path, err_path = work / "stdout", work / "stderr"
    ready_r, ready_w = os.pipe()
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(ready_w), str(spans_path or "-"), *inv.argv],
                stdout=out, stderr=err, pass_fds=(ready_w,), env=_child_env(), cwd=ROOT,
            )
            os.close(ready_w)
            ready_w = None
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            ended = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ready = os.read(ready_r, 64)
    finally:
        os.close(ready_r)
        if ready_w is not None:
            os.close(ready_w)
    op.wall += (ended - started) / 1e9
    op.cpu += usage.ru_utime + usage.ru_stime
    op.rss_mb = max(op.rss_mb, usage.ru_maxrss / 1024)
    op.output_bytes += out_path.stat().st_size
    name = " ".join(inv.argv[:1])
    if ready:
        op.setup += (int(ready) - started) / 1e9
    else:
        op.problems.append(f"{name}: process never became ready")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        op.problems.append(f"{name}: exit code {proc.returncode}: {stderr.strip()[-300:]}")
    elif "Traceback" in stderr:
        op.problems.append(f"{name}: traceback on stderr")
    else:
        op.problems += inv.check(out_path.read_text(encoding="utf-8", errors="replace"))
    if spans_path is not None and spans_path.exists():
        for key, value in tracer.totals(spans_path).items():
            op.spans[key] = op.spans.get(key, 0) + value
        spans_path.unlink()


def run_op(invocations, work, traced=False) -> Op:
    op = Op()
    for k, inv in enumerate(invocations):
        run_process(inv, work, op, work / f"spans-{k}.bin" if traced else None)
    return op


def end_to_end(ops, items):
    med = statistics.median
    return {
        "wall_s": med(o.wall for o in ops),
        "setup_s": med(o.setup for o in ops),
        "items_per_s": med(items / (o.wall - o.setup) for o in ops),
        "cpu_s": med(o.cpu for o in ops),
        "peak_rss_mb": med(o.rss_mb for o in ops),
    }


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$")


def import_profile() -> dict:
    """Import-time breakdown of ``evidential.cli`` from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import evidential.cli"],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT, check=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    out = {"import.total_s": 0.0, "import.numpy_s": 0.0, "import.scipy_s": 0.0,
           "import.evidential_self_s": 0.0}
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, cumulative_us, indent, module = int(m[1]), int(m[2]), m[3], m[4]
        top = module.partition(".")[0]
        if top == "evidential" and not indent:
            out["import.total_s"] += cumulative_us / 1e6
        for key, prefix in (("numpy", "numpy"), ("scipy", "scipy"), ("evidential_self", "evidential")):
            if top == prefix:
                out[f"import.{key}_s"] += self_us / 1e6
    return out


def provenance() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.name] = data.count(b"\n")
    lines["total"] = sum(lines.values())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "wc_l_src_evidential": lines,
    }


def _git_commit():
    # read .git by hand: a checkout without it must not make git search parents
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, work: Path, seconds: float, trace: bool):
    for inv in workload.warmup():
        warm = Op()
        run_process(inv, work, warm)
        for problem in warm.problems[:5]:
            print(f"# warm-up: {problem}")
    imports = [import_profile() for _ in range(IMPORT_PROBES)] if trace else []
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while not plain or (trace and not traced) or time.monotonic() < deadline:
        index = len(plain) + len(traced)
        use_trace = trace and len(traced) < len(plain)
        op = run_op(workload.invocations(index), work, traced=use_trace)
        (traced if use_trace else plain).append(op)
    ops = plain + traced
    failed = [o for o in ops if o.problems]
    metrics = end_to_end(plain, workload.items)
    layers = {}
    if trace:
        med = statistics.median
        layers.update({k: med(p[k] for p in imports) for k in imports[0]})
        per_op = [tracer.layer_metrics(o.spans) for o in traced]
        layers.update({k: med(m[k] for m in per_op) for k in per_op[0]})
        layers["cli.output_bytes"] = med(o.output_bytes for o in traced)
        layers["trace.overhead_s"] = med(o.wall for o in traced) - metrics["wall_s"]
    return ops, failed, metrics, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "cli.py").is_file():
        print(f"error: no program to measure: {PACKAGE_DIR / 'cli.py'} is missing", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        print("# provenance " + json.dumps(provenance(), sort_keys=True))
        print("# inputs " + json.dumps(workload.profile, sort_keys=True))
        ops, failed, e2e, layers = measure(workload, work, args.seconds, bool(args.trace))
    except subprocess.SubprocessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for op in failed[:3]:
        print("# failed operation: " + "; ".join(op.problems[:5]))
    print(f"# {args.workload}: {len(ops)} operations, {len(failed)} failed")
    print(f"# fail_frac {len(failed) / len(ops):.4f} ratio")
    for name, value in e2e.items():
        print(f"# {name} {value:.6g} {unit(name)}")
    for name, value in layers.items():
        print(f"# {name} {value:.6g} {unit(name)}")
    reported = layers if args.trace else e2e
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
