"""Lazy binding of `oracle`, `recurrence` and `verify`: which module bodies
each subcommand runs, the package's public names, and the benchmark
tracer's view of the lazy modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hanoilab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(hanoilab.__file__).resolve().parent
PATHS = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(PATHS))

# Runs one command through `cli.run` in a fresh interpreter and prints the
# package modules whose bodies executed.  The import system runs a module
# body through the builtin `exec`, which raises the "exec" audit event.
PROBE = """
import contextlib, io, json, os, sys
package, argv = sys.argv[1], sys.argv[2:]
ran = set()

def hook(event, args):
    code = args[0] if event == "exec" else None
    if getattr(code, "co_name", None) != "<module>":
        return
    if os.path.dirname(code.co_filename) == package:
        ran.add(os.path.basename(code.co_filename)[:-3])

sys.addaudithook(hook)
import hanoilab.cli

with contextlib.redirect_stdout(io.StringIO()):
    status = hanoilab.cli.run(argv)
print(json.dumps({"status": status, "ran": sorted(ran)}))
"""

BASE = {"__init__", "model", "solvers", "cli"}
FORMATS = ("plain", "csv", "json")
CONSTRUCTIVE = [
    ("--n", "4"),
    ("--model", "digraph", "--edges", "1>2,2>3,3>1", "--n", "4"),
    *(
        ("--model", "relaxed", "--distance", "2", "--n", "5", "--solver", solver)
        for solver in ("zeta", "symmetric", "q")
    ),
]

CASES = [
    *((("table", "--n", "6", "--format", f), {"recurrence"}) for f in FORMATS),
    (("table", "--model", "digraph", "--edges", "1>2,2>3,3>1", "--n", "6"), {"recurrence"}),
    *((("graphs", "enumerate", "--format", f), set()) for f in FORMATS),
    *((("solve", *argv, "--format", f), set()) for argv in CONSTRUCTIVE for f in FORMATS),
    (("solve", "--n", "4", "--solver", "bfs"), {"oracle"}),
    (("solve", "--model", "relaxed", "--distance", "1", "--n", "4", "--solver", "bfs"), {"oracle"}),
    (("conjecture", "--distance", "1", "--n-max", "3"), {"oracle"}),
    (("verify", "--suite", "graphs", "--n", "2"), {"oracle"}),
    (("verify", "--suite", "relaxed", "--n", "2"), {"oracle", "verify"}),
    (("verify", "--suite", "claims", "--n", "2"), {"oracle", "verify"}),
]


@pytest.mark.parametrize("argv,loaded", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_subcommand_runs_only_the_modules_it_calls(argv, loaded):
    child = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE), *argv],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["status"] == 0
    assert set(report["ran"]) == BASE | loaded


# Every name the package exported when it imported all five modules eagerly,
# plus `optimality_reports`, added since, with `growth_table` in place of
# the five-edge-only `growth_rate_5edge` it replaced.
OLD_EXPORTS = {
    "model": "IllegalMoveError MalformedStateError Model Move MoveGraph State apply apply_all"
    " is_legal_state legal_moves mirror_move mirror_sequence mirror_state standard_state",
    "oracle": "GoalPredicate SearchCapExceeded SearchResult bfs_distance conjecture_probe"
    " optimality_reports shortest_symmetric verify_optimality",
    "recurrence": "CountTable QuadValue RootBracket ab_closed_form closed_form_chord"
    " closed_form_cycle closed_form_linear conjecture_values eval_move_counts growth_table",
    "solvers": "a_symmetric classical_solve directed_move q_sequence zeta",
    "verify": "HarnessReport ValidationReport claim_harness is_symmetric lambda_predicates"
    " project_out_largest validate_sequence",
}
OLD_NAMES = [(module, name) for module, names in OLD_EXPORTS.items() for name in names.split()]


@pytest.mark.parametrize("module,name", OLD_NAMES, ids=[name for _, name in OLD_NAMES])
def test_package_names_resolve_to_their_module_objects(module, name):
    namespace: dict = {}
    exec(f"from hanoilab import {name}", namespace)
    assert namespace[name] is getattr(sys.modules[f"hanoilab.{module}"], name)
    assert name in dir(hanoilab)


def test_recurrence_re_exports_the_integer_counts_as_the_solvers_objects():
    # the counts moved to `solvers`; callers that read them from
    # `recurrence` get the very same objects
    for name in ("CountTable", "eval_move_counts", "conjecture_values", "q_lengths"):
        assert getattr(hanoilab.recurrence, name) is getattr(hanoilab.solvers, name)


def test_package_lists_exactly_the_old_names_and_rejects_unknown_ones():
    assert sorted(hanoilab.__all__) == sorted(name for _, name in OLD_NAMES)
    for module in ("model", "solvers", "oracle", "recurrence", "verify"):
        assert getattr(hanoilab, module) is sys.modules[f"hanoilab.{module}"]
    with pytest.raises(AttributeError, match="no_such_name"):
        hanoilab.no_such_name
    with pytest.raises(ImportError):
        exec("from hanoilab import no_such_name", {})


# hanoibench/traced_cli.py looks the library modules up in sys.modules right
# after `import hanoilab.cli`, so the lazy ones must be registered there.
@pytest.mark.parametrize(
    "argv,layer",
    [(("solve", "--n", "4", "--solver", "bfs"), "oracle"), (("table", "--n", "6"), "recurrence")],
)
def test_benchmark_tracer_sees_the_lazy_modules(argv, layer):
    def run(*command):
        return subprocess.run(
            [sys.executable, *command, *argv],
            cwd=ROOT,
            env=ENV,
            capture_output=True,
            timeout=120,
        )

    plain = run("-m", "hanoilab.cli")
    traced = run(str(ROOT / "hanoibench" / "traced_cli.py"))
    assert plain.returncode == 0 and traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    prefix = "hanoibench-trace "  # traced_cli.TRACE_PREFIX
    line = traced.stderr.decode().splitlines()[-1]
    assert line.startswith(prefix)
    assert layer in {span[0] for span in json.loads(line[len(prefix) :])}


def test_benchmark_tracer_books_the_solve_replay_to_model():
    # `cli.cmd_solve` calls the public replay core, which the tracer wraps
    traced = subprocess.run(
        [sys.executable, str(ROOT / "hanoibench" / "traced_cli.py"), "solve", "--n", "4"],
        cwd=ROOT,
        env=ENV,
        capture_output=True,
        timeout=120,
    )
    assert traced.returncode == 0, traced.stderr.decode()
    line = traced.stderr.decode().splitlines()[-1]
    spans = json.loads(line[len("hanoibench-trace ") :])
    assert ["model", "replay"] in [span[:2] for span in spans]
