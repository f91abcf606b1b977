"""hanoilab benchmark: CLI workloads, end-to-end metrics and a per-layer trace.

Run from the root of a checkout:

    python3 hanoibench/run.py --workload certify-digraphs --seed 1 --seconds 25 --trace 0
    python3 hanoibench/run.py --workload all        # every workload, one result
    python3 hanoibench/run.py --smoke               # tiny inputs, traced and not
    python3 hanoibench/run.py --self-test           # the gate counts failures

Each workload is a sequence of ``python -m hanoilab.cli`` commands run one
at a time from this process: a closed loop with one client.  The sequence
repeats until ``--seconds`` have passed, and every output is certified
outside the timed region; a command's stdout digest must match across all
repetitions of the run.

``--trace 0`` reports the end-to-end metrics.  On a shared machine the
speed drifts by tens of percent within minutes, so ``calibrate.py`` runs
before and after every timed command, and each command's wall time is
rescaled to the speed of the reference machine (``CAL_REF_S``).
``wall_s`` sums, over the sequence's commands, the median over repetitions
of each command's rescaled wall time; the raw median sequence time is
printed beside it.

``--trace 1`` alternates untraced sequences with sequences run through
``traced_cli.py``, which times each call into a library module.  It reports
the per-layer metrics of the median traced sequence, in raw seconds: the
layer self times plus ``unattributed_s`` add up to ``trace.wall_s``.  It
also runs the memory pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every command passed the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Where commands write stdout and stderr; inside the checkout, ignored by git.
OUT_DIR = HERE.parent / ".bench_build" / "hanoibench"

#: Spawns per run that time interpreter start plus ``import hanoilab.cli``.
SETUP_SPAWNS = 12

#: Median wall time of one ``calibrate.py`` run on the reference machine
#: (2-CPU Xeon, CPython 3.11.7).  Timed end-to-end metrics are expressed
#: at that machine's speed.
CAL_REF_S = 0.15

LAYERS = ("cli", "oracle", "model", "solvers", "recurrence", "verify")

UNITS = {
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "cli.stdout_bytes": "bytes",
    "cli.commands": "count",
    "oracle.calls": "count",
    "oracle.states": "count",
    "oracle.states_per_s": "states/s",
    "oracle.bytes_per_state.dense": "B/state",
    "oracle.bytes_per_state.sparse": "B/state",
    "model.moves_replayed": "count",
    "model.moves_per_s": "moves/s",
    "solvers.moves_built": "count",
    "solvers.moves_per_s": "moves/s",
    "recurrence.calls": "count",
    "verify.calls": "count",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s")


# ---------------------------------------------------------------------------
# Spawning and timing.


@dataclass
class Child:
    """One finished command: exit code, captured output, wall time and the
    child's own peak RSS (from ``wait4``, never ``RUSAGE_CHILDREN``, which
    keeps a running maximum over every child this process ever had)."""

    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int


class Launcher:
    """Runs commands one at a time through ``launcher.py``, so that each
    command's peak RSS is its own and not this process's."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.out = OUT_DIR / f"{os.getpid()}.stdout"
        self.err = OUT_DIR / f"{os.getpid()}.stderr"
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)

    def run(self, argv: list[str]) -> Child:
        self.proc.stdin.write(json.dumps([argv, str(self.out), str(self.err)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        code, wall, maxrss = json.loads(reply)
        return Child(code, self.out.read_bytes(), self.err.read_bytes(), wall, maxrss)

    def calibrate(self) -> float:
        """Wall time of the fixed calibration work, right now."""
        child = self.run([sys.executable, str(HERE / "calibrate.py")])
        if child.returncode != 0:
            raise SystemExit(f"calibration failed: {child.stderr.decode()}")
        return child.wall_s

    def timed(self, argvs: list[list[str]], calibrated: bool) -> tuple[list[Child], list[float]]:
        """Run the commands in order.  Returns the children and their wall
        times, each rescaled to the reference speed by the calibrations just
        before and after it when `calibrated`."""
        children, times = [], []
        before = self.calibrate() if calibrated else CAL_REF_S
        for argv in argvs:
            child = self.run(argv)
            after = self.calibrate() if calibrated else CAL_REF_S
            children.append(child)
            times.append(child.wall_s * 2 * CAL_REF_S / (before + after))
            before = after
        return children, times


UNTRACED = [sys.executable, "-m", "hanoilab.cli"]
TRACED = [sys.executable, str(HERE / "traced_cli.py")]


def measure_setup(launcher: Launcher) -> float:
    """Median time to start the interpreter and import the CLI, rescaled to
    the reference speed."""
    argv = [sys.executable, "-c", "import hanoilab.cli"]
    launcher.run(argv)  # may compile bytecode; users pay that once
    children, times = launcher.timed([argv] * SETUP_SPAWNS, calibrated=True)
    for child in children:
        if child.returncode != 0:
            raise SystemExit(f"cannot import hanoilab.cli: {child.stderr.decode()}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Correctness gate.


@dataclass
class Gate:
    """Certifies outputs and counts attempts and failures.  The first output
    of each command is checked in full; every later one must have the same
    digest."""

    commands: list
    digests: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def judge(self, index: int, child: Child) -> bool:
        self.attempted += 1
        reason = self._reason(index, child)
        if reason is None:
            return True
        self.failed += 1
        self.reasons.append(f"{self.commands[index].label}: {reason}")
        return False

    def judge_all(self, children: list[Child]) -> bool:
        return all([self.judge(i, child) for i, child in enumerate(children)])

    def _reason(self, index: int, child: Child) -> str | None:
        if child.returncode != 0:
            tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit code {child.returncode} {tail}"
        digest = hashlib.sha256(child.stdout).hexdigest()
        if index in self.digests:
            if digest != self.digests[index]:
                return "stdout differs from the first run of this seed"
            return None
        try:
            reason = self.commands[index].check(child.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            reason = f"unreadable output: {err!r}"
        if reason is None:
            self.digests[index] = digest
        return reason


# ---------------------------------------------------------------------------
# Per-layer accounting of one traced sequence.


def _parse_spans(child: Child) -> list:
    from traced_cli import TRACE_PREFIX

    for line in reversed(child.stderr.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX) :])
    raise ValueError("traced command wrote no spans")


def layer_metrics(wall: float, children: list[Child]) -> dict[str, float]:
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    work = dict.fromkeys(LAYERS, 0)
    search_s = 0.0  # self time of oracle spans that report explored states
    for child in children:
        spans = _parse_spans(child)
        inner = [0.0] * len(spans)
        for layer, name, parent, start, end, _ in spans:
            if parent >= 0:
                inner[parent] += end - start
        for (layer, name, parent, start, end, count), covered in zip(spans, inner):
            own = end - start - covered
            self_s[layer] += own
            calls[layer] += 1
            work[layer] += count
            if layer == "oracle" and count:
                search_s += own

    def rate(count: int, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update(
        {
            "cli.stdout_bytes": sum(len(c.stdout) for c in children),
            "cli.commands": len(children),
            "oracle.calls": calls["oracle"],
            "oracle.states": work["oracle"],
            "oracle.states_per_s": rate(work["oracle"], search_s),
            "model.moves_replayed": work["model"],
            "model.moves_per_s": rate(work["model"], self_s["model"]),
            "solvers.moves_built": work["solvers"],
            "solvers.moves_per_s": rate(work["solvers"], self_s["solvers"]),
            "recurrence.calls": calls["recurrence"],
            "verify.calls": calls["verify"],
            "unattributed_s": wall - sum(self_s.values()),
            "trace.wall_s": wall,
        }
    )
    return metrics


def bytes_per_state(perm) -> dict[str, float]:
    """tracemalloc peak over states explored, for one dense search (classical,
    no path) and one sparse search (distance 1).  Runs in this process,
    apart from every timed pass."""
    from hanoilab.model import Model, standard_state
    from hanoilab.oracle import GoalPredicate, bfs_distance

    out = {}
    for name, model, n in (("dense", Model.classical(), 10), ("sparse", Model.relaxed(1), 8)):
        start, goal = standard_state(n, perm[0]), GoalPredicate.standard_on(perm[1])
        tracemalloc.start()
        try:
            result = bfs_distance(model, start, goal, want_path=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[f"oracle.bytes_per_state.{name}"] = peak / result.explored
    return out


# ---------------------------------------------------------------------------
# Workload runs.


def run_workload(launcher, name: str, seed: int, seconds: float, trace: bool, smoke=False):
    """Run one workload; returns (metrics, gate)."""
    from workloads import WORKLOADS, permutation_for

    perm = permutation_for(seed)
    commands = WORKLOADS[name](perm, smoke)
    gate = Gate(commands)
    print(f"workload {name}: seed {seed}, pegs 1,2,3 -> {','.join(map(str, perm))}, "
          f"{len(commands)} commands, trace {int(trace)}")

    plain, traced = [], []  # per sequence: (raw wall, rescaled command times, peak RSS)
    start = time.perf_counter()
    while True:
        children, rescaled = launcher.timed(
            [UNTRACED + list(c.argv) for c in commands], calibrated=not trace
        )
        gate.judge_all(children)
        rss = max(c.maxrss_kb for c in children)
        plain.append((sum(c.wall_s for c in children), rescaled, rss))
        if trace:
            children, _ = launcher.timed([TRACED + list(c.argv) for c in commands], False)
            if gate.judge_all(children):
                traced.append((sum(c.wall_s for c in children), children))
        if time.perf_counter() - start >= seconds:
            break

    raw = statistics.median(wall for wall, _, _ in plain)
    if not trace:
        per_command = zip(*(rescaled for _, rescaled, _ in plain))
        metrics = {
            "wall_s": sum(statistics.median(times) for times in per_command),
            "peak_rss_mb": max(rss for _, _, rss in plain) / 1024,
            "setup_s": measure_setup(launcher),
        }
        print(f"  {len(plain)} sequences; median raw sequence time {raw:.4f} s "
              "before rescaling to the reference speed")
    else:
        metrics = {}
        if traced:
            traced.sort(key=lambda t: t[0])
            wall, children = traced[(len(traced) - 1) // 2]
            metrics = layer_metrics(wall, children)
            metrics["trace.overhead_s"] = wall - raw
        metrics.update(bytes_per_state(perm))
        print(f"  {len(plain)} untraced and {len(traced)} passing traced sequences")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:14.6g} {unit(key)}")
    print(f"  {'fail_ratio':32s} {gate.failed / gate.attempted:14.6g} ratio  "
          f"({gate.failed} of {gate.attempted} commands, base cli.commands x sequences)")
    for reason in gate.reasons[:20]:
        print(f"  FAIL {reason}")
    return metrics, gate


def environment() -> str:
    return (f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
            f"{platform.machine()}, {platform.platform()}")


def self_test(launcher: Launcher) -> int:
    """Show that the gate counts a corrupted stdout, a non-zero exit and a
    stdout that changes between runs as failures, and passes good output."""
    from workloads import solve

    cmd = solve((1, 2, 3), 4, 1, 3)
    good = launcher.run(UNTRACED + list(cmd.argv))
    corrupt = Child(0, good.stdout.replace(b"1>3", b"1>2", 1), b"", 0.0, 0)
    changed = Child(0, good.stdout + b"\n", b"", 0.0, 0)
    bad_exit = launcher.run(UNTRACED + list(cmd.argv) + ["--to", "1"])
    cases = [
        ("good output passes", [good], True),
        ("corrupted stdout fails", [corrupt], False),
        ("non-zero exit fails", [bad_exit], False),
        ("changed digest fails", [good, changed], False),
    ]
    ok = True
    for label, children, want in cases:
        gate = Gate([cmd])
        verdicts = [gate.judge(0, child) for child in children]
        passed = verdicts[-1] == want and gate.failed == (0 if want else 1)
        ok &= passed
        print(f"{label}: {'PASS' if passed else 'FAIL'} ({gate.failed} of {gate.attempted} failed)")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every workload, both passes")
    parser.add_argument("--self-test", action="store_true", help="check that the gate counts failures")
    args = parser.parse_args(argv)
    if not (args.workload or args.smoke or args.self_test):
        parser.error("--workload is required")

    with Launcher() as launcher:
        if args.self_test:
            return self_test(launcher)
        if args.smoke:
            failed = 0
            for name in WORKLOADS:
                for trace in (False, True):
                    failed += run_workload(launcher, name, args.seed, 0, trace, smoke=True)[1].failed
            print(f"smoke: {'PASS' if failed == 0 else 'FAIL'}")
            return 0 if failed == 0 else 1

        print(f"environment: {environment()}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            result, gate = run_workload(launcher, name, args.seed, args.seconds, bool(args.trace))
            attempted += gate.attempted
            failed += gate.failed
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": unit(k)} for k, v in result.items()})
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    if not (SRC / "hanoilab" / "cli.py").is_file():
        print(f"error: no hanoilab sources at {SRC}; run from a hanoilab checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
