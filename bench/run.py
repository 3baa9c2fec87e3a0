"""End-to-end benchmark of the planechow command line interface.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep --seed 1 --seconds 18 --trace 0

``--workload all`` runs every workload in turn and prints each one's
metrics by name and unit.  Workloads, with their rationale, are listed in
``BENCHMARK.json`` at the root of the repository.

The benchmark measures the program from outside: one subprocess per CLI
invocation (``python -m planechow.cli ...`` against ``./src``), run as a
closed loop with one client, because a shell user waits for each command
before typing the next.  The amount of work is fixed by ``--seconds``
through each workload's nominal cost per round on a 2-CPU machine, so two
commits run identical inputs.  Every output is checked by an independent
route (see ``workloads.py``); a failed check counts in ``failed`` and the
run goes on.

Each process is started through ``launch.py``, which takes its rusage
with ``os.wait4`` and times a fixed piece of calibration work on the same
CPU just before and after it.  The shared host this was built on slows a
virtual CPU by up to 1.7x for seconds to minutes at a time, which moved
whole runs by 15%; every time below is therefore scaled to the speed of an
uncontended CPU (``CAL_REF_S``).  The unscaled total is printed as
``unscaled_wall_s`` in the ``meta`` line.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` each invocation runs three times, in rotating order: once
plain and twice under ``trace_shim.py``.  The last line then reports the
per-layer spans and counters, and ``trace_overhead_ratio``.  The two traced
runs of an invocation must repeat every count exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import launch
import trace_shim
import workloads

#: Nominal seconds per round of each workload on the reference machine
#: (2 CPUs, Python 3.11); a run makes round(seconds / nominal) rounds.
NOMINAL_ROUND_S = {"sweep": 9.5, "certify": 1.05, "calc": 15.0, "table-par": 5.0}

#: Seconds the calibration work of launch.py takes on an uncontended CPU of
#: the reference machine.  Every time is reported at that CPU speed.
CAL_REF_S = 0.0032

#: Import-only probes per run; setup_s is their median.
SETUP_PROBES = 11
#: An invocation running longer than this is killed and counted as failed.
INVOCATION_TIMEOUT_S = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("records_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_s_per_record", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for module, attr in trace_shim.SPANS:
        span = f"{module}.{attr}"
        names += [(f"{span}.calls", "count"), (f"{span}.total_s", "s"),
                  (f"{span}.self_s", "s")]
    for counter in trace_shim.COUNTERS:
        if counter == "groebner.normal_form.zeros":
            names.append(("groebner.normal_form.zero_ratio", "ratio"))
        else:
            names.append((counter, "count"))
    for module, attr in trace_shim.CACHES:
        names.append((f"{module}.{attr}.hit_ratio", "ratio"))
    names.append(("trace_overhead_ratio", "ratio"))
    return names


@dataclass
class Outcome:
    """One measured invocation; wall and cpu are at reference CPU speed."""

    wall: float
    cpu: float
    raw_wall: float
    rss_mb: float
    ok: bool
    stderr: str


class Runner:
    """Runs one CLI process at a time, measured by launch.py."""

    def __init__(self, root: str):
        self.root = root
        env = dict(os.environ)
        # normal bytecode caching, so setup measures import, not compiling
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env
        here = os.path.dirname(os.path.abspath(__file__))
        self.launch = [sys.executable, "-S", os.path.join(here, "launch.py")]
        self.cli = [sys.executable, "-m", "planechow.cli"]
        self.shim = [sys.executable, os.path.join(here, "trace_shim.py")]

    def spawn(self, argv: list[str], all_cpus: bool = False):
        """Run argv via launch.py; returns (Outcome without ok, code, stdout)."""
        proc = subprocess.Popen(
            self.launch + ["all" if all_cpus else "one"] + argv,
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        deadline = time.perf_counter() + INVOCATION_TIMEOUT_S
        chunks = {proc.stdout: [], proc.stderr: []}
        try:
            with selectors.DefaultSelector() as sel:
                for pipe in chunks:
                    sel.register(pipe, selectors.EVENT_READ)
                while sel.get_map():
                    left = deadline - time.perf_counter()
                    if left <= 0:
                        raise TimeoutError(" ".join(argv))
                    for key, _ in sel.select(left):
                        data = os.read(key.fd, 1 << 16)
                        if data:
                            chunks[key.fileobj].append(data)
                        else:
                            sel.unregister(key.fileobj)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            proc.stdout.close()
            proc.stderr.close()
        proc.wait()
        out, err = (b"".join(chunks[p]).decode("utf-8", "replace")
                    for p in (proc.stdout, proc.stderr))
        err, _, report = err.rstrip("\n").rpartition("\n")
        if not report.startswith(launch.MARKER):
            raise RuntimeError(f"launcher failed on {' '.join(argv)}:\n{report}")
        wall, cpu, rss_kib, status, cal = report[len(launch.MARKER):].split()
        scale = CAL_REF_S / float(cal)
        outcome = Outcome(float(wall) * scale, float(cpu) * scale, float(wall),
                          int(rss_kib) / 1024, False, err)
        return outcome, os.waitstatus_to_exitcode(int(status)), out

    def invoke(self, inv: workloads.Invocation, traced: bool = False) -> Outcome:
        argv = (self.shim if traced else self.cli) + list(inv.args)
        try:
            outcome, code, out = self.spawn(argv, inv.parallel)
        except TimeoutError:
            return Outcome(INVOCATION_TIMEOUT_S, 0.0, INVOCATION_TIMEOUT_S, 0.0,
                           False, "timeout")
        outcome.ok = code == 0 and inv.check(out)
        return outcome

    def setup_probe(self) -> Outcome:
        outcome, code, _ = self.spawn([sys.executable, "-c", "import planechow.cli"])
        if code:
            raise RuntimeError(f"importing planechow.cli failed:\n{outcome.stderr}")
        return outcome


def build(name: str, seed: int, rounds: int) -> list[workloads.Invocation]:
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep":
        return workloads.sweep(rng, rounds)
    if name == "certify":
        return workloads.certify(rng, rounds)
    if name == "calc":
        return workloads.calc(rng, rounds)
    return workloads.table_par(rng, rounds, min(2, len(os.sched_getaffinity(0))))


def argv_digest(invocations) -> str:
    text = json.dumps([inv.args for inv in invocations])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def measure(runner: Runner, invocations) -> tuple[dict, int, float]:
    """Untraced closed loop: end-to-end metrics, failures, unscaled wall s."""
    probe_at = {round(i * len(invocations) / SETUP_PROBES) for i in range(SETUP_PROBES)}
    setups, outcomes = [], []
    for i, inv in enumerate(invocations):
        if i in probe_at:
            setups.append(runner.setup_probe())
        outcomes.append(runner.invoke(inv))
    walls = [o.wall for o in outcomes]
    wall_s = sum(walls)
    good = sum(inv.records for inv, o in zip(invocations, outcomes) if o.ok)
    records = sum(inv.records for inv in invocations)
    values = {
        "setup_s": statistics.median(o.wall for o in setups),
        "wall_s": wall_s,
        "records_per_s": good / wall_s,
        "op_p50_ms": 1000 * statistics.median(walls),
        "op_p90_ms": 1000 * statistics.quantiles(walls, n=10)[-1],
        "cpu_s_per_record": sum(o.cpu for o in outcomes) / records,
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }
    return values, sum(not o.ok for o in outcomes), sum(o.raw_wall for o in outcomes)


def _parse_trace(stderr: str) -> dict | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith(trace_shim.MARKER):
            return json.loads(line[len(trace_shim.MARKER):])
    return None


def _counts(trace: dict) -> dict:
    """Everything in a trace that must repeat exactly: no timings."""
    return {
        "calls": {n: s[0] for n, s in trace["spans"].items()},
        "counters": trace["counters"],
        "caches": trace["caches"],
    }


def trace(runner: Runner, name: str, invocations) -> tuple[dict, int, list[str]]:
    """Traced loop: per-layer metrics, failure count, self-check failures."""
    plain_wall = traced_wall = 0.0
    failed = 0
    problems = []
    spans: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    caches: dict[str, list[int]] = {}
    for i, inv in enumerate(invocations):
        runs = {}
        for kind in ("plain", "a", "b")[i % 3:] + ("plain", "a", "b")[:i % 3]:
            runs[kind] = runner.invoke(inv, traced=kind != "plain")
        failed += sum(not o.ok for o in runs.values())
        plain_wall += runs["plain"].wall
        traced_wall += (runs["a"].wall + runs["b"].wall) / 2
        a, b = _parse_trace(runs["a"].stderr), _parse_trace(runs["b"].stderr)
        if a is None or b is None:
            problems.append(f"no trace from {' '.join(inv.args)}")
            continue
        if _counts(a) != _counts(b):
            problems.append(f"traced runs of {' '.join(inv.args)} differ in counts")
        # span times at reference CPU speed, like every other time
        scale_a = runs["a"].wall / runs["a"].raw_wall
        scale_b = runs["b"].wall / runs["b"].raw_wall
        for n, (calls, total, self_s) in a["spans"].items():
            acc = spans.setdefault(n, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += (total * scale_a + b["spans"][n][1] * scale_b) / 2
            acc[2] += (self_s * scale_a + b["spans"][n][2] * scale_b) / 2
        for n, v in a["counters"].items():
            counters[n] = counters.get(n, 0) + v
        for n, (hits, misses) in a["caches"].items():
            acc = caches.setdefault(n, [0, 0])
            acc[0] += hits
            acc[1] += misses

    values = {}
    for module, attr in trace_shim.SPANS:
        span = f"{module}.{attr}"
        calls, total, self_s = spans.get(span, (0, 0.0, 0.0))
        values[f"{span}.calls"] = calls
        values[f"{span}.total_s"] = total
        values[f"{span}.self_s"] = self_s
    for counter in trace_shim.COUNTERS:
        if counter == "groebner.normal_form.zeros":
            calls = spans.get("groebner.normal_form", (0,))[0]
            values["groebner.normal_form.zero_ratio"] = (
                counters.get(counter, 0) / calls if calls else 0.0
            )
        else:
            values[counter] = counters.get(counter, 0)
    for module, attr in trace_shim.CACHES:
        hits, misses = caches.get(f"{module}.{attr}", (0, 0))
        lookups = hits + misses
        values[f"{module}.{attr}.hit_ratio"] = hits / lookups if lookups else 0.0
    values["trace_overhead_ratio"] = traced_wall / plain_wall

    # the Hodge layer runs once per sweep record and never on certify/calc
    hodge = values["symmetric.chern_roots_product.calls"]
    records = sum(inv.records for inv in invocations)
    expected = {"sweep": records, "certify": 0, "calc": 0}.get(name)
    if expected is not None and hodge != expected:
        problems.append(
            f"symmetric.chern_roots_product.calls is {hodge}, predicted {expected}"
        )
    return values, failed, problems


def git_sha(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def src_digest(root: str) -> str:
    """Digest of the measured sources, for checkouts without .git."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "planechow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def rationale(root: str) -> dict[str, str]:
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            return {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    except (OSError, ValueError, KeyError):
        return {}


def run_workload(runner: Runner, name: str, seed: int, seconds: int, traced: bool):
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[name]))
    if traced:
        rounds = max(1, round(rounds / 3))
    invocations = build(name, seed, rounds)
    meta = {
        "workload": name,
        "why": rationale(runner.root).get(name),
        "seed": seed,
        "rounds": rounds,
        "invocations": len(invocations),
        "records": sum(inv.records for inv in invocations),
        "argv_digest": argv_digest(invocations),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(runner.root),
        "src_digest": src_digest(runner.root),
        "clients": 1,
    }
    print(f"argv digest {meta['argv_digest']} ({name}, seed {seed})", flush=True)
    runner.invoke(invocations[0])  # untimed warm-up: compiles bytecode
    if traced:
        values, failed, problems = trace(runner, name, invocations)
        attempted = 3 * len(invocations)
        units = dict(per_layer_names())
    else:
        values, failed, meta["unscaled_wall_s"] = measure(runner, invocations)
        problems = []
        attempted = len(invocations)
        units = dict(END_TO_END)
    meta["failed_ratio"] = failed / attempted
    meta["self_check"] = problems or "ok"
    print("meta " + json.dumps(meta), flush=True)
    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    width = max(len(n) for n in units)
    for metric, unit in units.items():
        print(f"  {name:9} {metric:{width}} {values[metric]:>16.6g} {unit}")
    print(f"  {name:9} {'failed_ratio':{width}} {meta['failed_ratio']:>16.6g} ratio "
          f"({failed}/{attempted})", flush=True)
    metrics = {m: {"value": values[m], "unit": u} for m, u in units.items()}
    return not failed and not problems, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_ROUND_S) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "planechow", "cli.py")):
        print("error: no src/planechow here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    runner = Runner(root)
    names = sorted(NOMINAL_ROUND_S) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, bad, values = run_workload(
            runner, name, args.seed, args.seconds, bool(args.trace)
        )
        correct &= ok
        attempted += n
        failed += bad
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + m: v for m, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
