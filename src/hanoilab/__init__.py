"""Generalized Tower of Hanoi laboratory.

Models couple a directed move graph over three pegs with a placement
distance C; solvers produce the constructive transfer sequences and the
exact integer move counts, the recurrence module evaluates closed forms
and growth rates, and the oracle module provides exhaustive-search ground
truth through two search cores, `dense` (distance 0) and `sparse`
(distance >= 1).

Importing the package runs `model` alone.  `solvers`, `oracle`, `dense`,
`sparse`, `recurrence` and `verify` are lazy modules
(`importlib.util.LazyLoader`): registered in `sys.modules` at once, their
bodies run on first attribute access.  Per CLI subcommand, besides `model`
and `cli`: `graphs` runs none of them; the constructive `solve` solvers run
`solvers`; `table` runs `recurrence` and `solvers`; `solve --solver bfs`
runs `oracle` and the core of its distance; `conjecture` runs `oracle`,
`sparse` and `solvers`; `verify --suite graphs` runs `oracle`, `dense` and
`solvers`; the other `verify` suites run `oracle`, `sparse`, `solvers` and
`verify`.  Only `table` imports `fractions` and `decimal`.  Public names
resolve through a PEP 562 `__getattr__`.  That hook alone would keep the
lazy modules out of `sys.modules`, where a tracer that wraps their
functions looks them up.  No module imports `dataclasses` or `inspect`,
and `cli` imports `json` only to write JSON.
"""

import importlib.util
import sys

from . import model


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


solvers, oracle, dense, sparse, recurrence, verify = map(
    _lazy, ("solvers", "oracle", "dense", "sparse", "recurrence", "verify")
)

_EXPORTS = {
    model: "GoalPredicate IllegalMoveError MalformedStateError Model Move MoveGraph"
    " SearchCapExceeded State apply apply_all is_legal_state legal_moves mirror_move"
    " mirror_sequence mirror_state standard_state",
    solvers: "CountTable a_symmetric classical_solve conjecture_values directed_move"
    " eval_move_counts q_sequence zeta",
    oracle: "SearchResult bfs_distance conjecture_probe optimality_reports shortest_symmetric"
    " verify_optimality",
    recurrence: "QuadValue RootBracket ab_closed_form closed_form_chord closed_form_cycle"
    " closed_form_linear growth_table",
    verify: "HarnessReport ValidationReport claim_harness is_symmetric lambda_predicates"
    " project_out_largest validate_sequence",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(_HOME[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
