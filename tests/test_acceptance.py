"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import random
import time
from fractions import Fraction

from hanoilab.cli import all_strongly_connected_graphs, run
from hanoilab.model import (
    Model,
    Move,
    MoveGraph,
    State,
    apply,
    apply_all,
    legal_moves,
    mirror_move,
    mirror_state,
    standard_state,
)
from hanoilab.oracle import (
    GoalPredicate,
    bfs_distance,
    optimality_reports,
    shortest_symmetric,
)
from hanoilab.recurrence import (
    CHORD_GRAPH,
    CYCLE_GRAPH,
    FIVE_EDGE_GRAPH,
    LINEAR_GRAPH,
    PAIR_ORDER,
    QuadValue,
    ab_closed_form,
    bisect_root,
    closed_form_chord,
    closed_form_cycle,
    closed_form_linear,
    conjecture_values,
    eval_move_counts,
    growth_table,
)
from hanoilab.solvers import a_symmetric, classical_solve, directed_move, q_sequence, zeta
from hanoilab.verify import claim_harness, is_symmetric, moved_discs, project_out_largest


def _report(num: int, description: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({description}): {status} [{elapsed:.1f}s]")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_classical():
    t0 = time.monotonic()
    ok = all(len(classical_solve(n, 1, 2)) == 2**n - 1 for n in range(16))
    for n in range(1, 11):
        result = bfs_distance(
            Model.classical(),
            standard_state(n, 1),
            GoalPredicate.standard_on(2),
            want_path=False,
        )
        ok = ok and result.distance == 2**n - 1
        # the mirror search stops at half the distance: the 3**(n-1)
        # placements of discs 1..n-1 over disc n on the source, and disc n
        # moved to either other peg over discs 1..n-1 on the third
        ok = ok and result.explored == 3 ** (n - 1) + 2
    elapsed = time.monotonic() - t0
    _report(1, "classical lengths 2^n-1, oracle equality to n=10", ok and elapsed < 30, elapsed)


def test_criterion_2_digraph_optimality():
    t0 = time.monotonic()
    mismatches = 0
    graphs = all_strongly_connected_graphs()
    assert len(graphs) == 18
    for graph in graphs:
        for report in optimality_reports(graph, 8):
            mismatches += len(report.failures())
    elapsed = time.monotonic() - t0
    _report(
        2,
        "all 18 digraphs, n<=8: construction == recurrence == BFS",
        mismatches == 0 and elapsed < 120,
        elapsed,
    )


def test_criterion_3_closed_forms_exact():
    t0 = time.monotonic()
    ok = True
    cases = [
        (CYCLE_GRAPH, lambda pair, n: closed_form_cycle(pair, n).as_integer()),
        (LINEAR_GRAPH, closed_form_linear),
        (CHORD_GRAPH, lambda pair, n: closed_form_chord(pair, n).as_integer()),
    ]
    for graph, formula in cases:
        table = eval_move_counts(graph, 30)
        for pair in PAIR_ORDER:
            for n in range(31):
                ok = ok and formula(pair, n) == table.value(pair, n)
    elapsed = time.monotonic() - t0
    _report(3, "quadratic-field closed forms exact to n=30", ok and elapsed < 10, elapsed)


def test_criterion_4_growth_constants():
    t0 = time.monotonic()
    table = growth_table(Fraction(1, 10**6))
    spare, root = table["five-edge", (1, 2)]
    ok = spare >= 2 and root.width <= Fraction(1, 10**6)
    ok = ok and Fraction(234, 100) <= root.lo <= root.hi <= Fraction(235, 100)
    # the stated ~2.12 order is the greatest root of the reversed cubic (the
    # generating function's denominator); the measured growth matches the
    # cubic's own root instead, so ~2.12 is NOT reproduced
    reversed_root = bisect_root(root.coefficients[::-1], 2, 3, Fraction(1, 10**6))
    ok = ok and Fraction(211, 100) <= reversed_root.midpoint <= Fraction(213, 100)
    column = eval_move_counts(FIVE_EDGE_GRAPH, 40).column((2, 1))
    ratio = float(Fraction(column[40], column[39]))
    ok = ok and abs(ratio - float(root)) < 1e-3
    ok = ok and abs(ratio - float(reversed_root)) > 1e-3
    elapsed = time.monotonic() - t0
    _report(4, "five-edge growth: dominant root, not the reversed cubic's", ok, elapsed)


def test_criterion_5_relaxed_distance_one():
    t0 = time.monotonic()
    a, b = conjecture_values(9, 1)
    ok = a[4] == 9 and a[3] == 5 and b[4] == 6
    ok = ok and all(ab_closed_form(n, "a").as_integer() == a[n] for n in range(10))
    model = Model.relaxed(1)
    for n in range(1, 10):
        std = bfs_distance(
            model, standard_state(n, 1), GoalPredicate.standard_on(2), want_path=False
        )
        any_on = bfs_distance(
            model, standard_state(n, 1), GoalPredicate.all_on(2), want_path=False
        )
        ok = ok and std.distance == a[n] and any_on.distance == b[n]
    elapsed = time.monotonic() - t0
    _report(
        5,
        "distance 1: BFS == a(n) and b(n) for n<=9",
        ok and elapsed < 60,
        elapsed,
    )


def test_criterion_6_symmetric_search():
    t0 = time.monotonic()
    model = Model.relaxed(1)
    a, _ = conjecture_values(7, 1)
    ok = True
    for n in range(1, 8):
        result = shortest_symmetric(model, n, 1, 2)
        ok = ok and result.distance == a[n] and result.distance % 2 == 1
    witness = shortest_symmetric(model, 4, 1, 2)
    ok = ok and witness.distance == 9
    ok = ok and is_symmetric(witness.path, 1, 2, model=model, start=standard_state(4, 1))
    # the canonical 9-move example sequence is accepted by the validator
    example = [
        Move(1, 2),
        Move(1, 3),
        Move(1, 3),
        Move(2, 3),
        Move(1, 2),
        Move(3, 1),
        Move(3, 2),
        Move(3, 2),
        Move(1, 2),
    ]
    ok = ok and is_symmetric(example, 1, 2, model=model, start=standard_state(4, 1))
    ok = ok and apply_all(model, standard_state(4, 1), example) == standard_state(4, 2)
    elapsed = time.monotonic() - t0
    _report(6, "shortest symmetric: odd, equals a(n), n=4 witness", ok, elapsed)


def test_criterion_7_conjecture_probe(capsys):
    t0 = time.monotonic()
    ok = True
    for C, n_max in ((2, 7), (3, 8)):
        argv = ["conjecture", "--distance", str(C), "--format", "csv"]
        if run([*argv, "--n-max", str(n_max)]) != 0:
            # a state cap is acceptable only for the distance-3 tail by its own terms
            ok = ok and C == 3 and "resource cap exceeded" in capsys.readouterr().err
            ok = ok and run([*argv, "--n-max", "7"]) == 0
        csv = capsys.readouterr().out
        header, *lines = csv.strip().split("\n")
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        ok = ok and [row["n"] for row in rows] == [str(n) for n in range(1, len(rows) + 1)]
        for row in rows:
            bfs_any, bfs_std, len_a_sym, len_q = (
                int(row[name]) for name in ("bfs_any", "bfs_std", "len_a_sym", "len_q")
            )
            ok = ok and bfs_any <= bfs_std <= min(len_a_sym, len_q)
        ok = ok and csv.startswith("n,bfs_std,bfs_any,a_conj,b_conj,len_a_sym,len_q,match")
        ok = ok and all(
            line.endswith(("MATCH", "MISMATCH")) for line in csv.strip().split("\n")[1:]
        )
    elapsed = time.monotonic() - t0
    _report(7, "conjecture probe C=2 n<=7, C=3 n<=8: complete and consistent", ok, elapsed)


def _random_legal_state(rng: random.Random, n: int, distance: int) -> State:
    groups: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for disc in range(1, n + 1):
        groups[rng.randint(1, 3)].append(disc)
    stacks = []
    for peg in (1, 2, 3):
        remaining = groups[peg][:]
        order: list[int] = []
        while remaining:
            candidates = [
                d
                for d in remaining
                if len(remaining) == 1
                or max(x for x in remaining if x != d) <= d + distance
            ]
            choice = rng.choice(candidates)
            order.append(choice)
            remaining.remove(choice)
        stacks.append(tuple(order))
    return State((stacks[0], stacks[1], stacks[2]))


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    ok = True

    # projection holds on 100+ witnesses: oracle paths plus constructions
    witnesses = []
    digraph_models = [Model.classical(), Model.digraph(CYCLE_GRAPH), Model.digraph(LINEAR_GRAPH)]
    for model in digraph_models:
        for n in (2, 3, 4):
            for src, tgt in PAIR_ORDER:
                path = bfs_distance(
                    model, standard_state(n, src), GoalPredicate.standard_on(tgt)
                ).path
                witnesses.append((model, standard_state(n, src), list(path)))
                witnesses.append(
                    (
                        model,
                        standard_state(n, src),
                        directed_move(model.graph, src, tgt, n),
                    )
                )
    for C in (1, 2):
        model = Model.relaxed(C)
        for n in (2, 3, 4):
            for src, tgt in ((1, 2), (2, 3), (3, 1)):
                witnesses.append(
                    (model, standard_state(n, src), a_symmetric(n, C, src, tgt))
                )
                witnesses.append(
                    (model, standard_state(n, src), zeta(n, C, src, tgt))
                )
    ok = ok and len(witnesses) >= 100
    for model, start, seq in witnesses:
        projected = project_out_largest(seq, model, start)
        largest_moves = moved_discs(model, start, seq).count(start.n)
        ok = ok and len(seq) == len(projected) + largest_moves

    # numeric inequalities at full range
    ok = ok and claim_harness("dn-negative", {"n_max": 60}).passed
    ok = ok and claim_harness("claim51-inequality", {"n_max": 60}).passed

    # quadratic-field axioms, 1000 randomized cases
    rng = random.Random(20260809)

    def rand_quad(d: int) -> QuadValue:
        return QuadValue(
            Fraction(rng.randint(-99, 99), rng.randint(1, 30)),
            Fraction(rng.randint(-99, 99), rng.randint(1, 30)),
            d,
        )

    for _ in range(1000):
        d = rng.choice((2, 3, 17))
        x, y, z = rand_quad(d), rand_quad(d), rand_quad(d)
        ok = ok and (x + y) + z == x + (y + z)
        ok = ok and x * y == y * x
        ok = ok and x * (y + z) == x * y + x * z
        ok = ok and x * x.conjugate() == QuadValue(
            x.a * x.a - d * x.b * x.b, Fraction(0), d
        )
        if y.a != 0 or y.b != 0:
            ok = ok and (x / y) * y == x

    # mirror involution and commutation on randomized legal states
    for _ in range(300):
        n = rng.randint(0, 6)
        C = rng.randint(0, 3)
        model = Model(MoveGraph.complete(), C)
        state = _random_legal_state(rng, n, C)
        src, tgt = rng.choice(((1, 2), (1, 3), (2, 3)))
        ok = ok and mirror_state(mirror_state(state, src, tgt), src, tgt) == state
        for move in legal_moves(model, state):
            ok = ok and mirror_move(mirror_move(move, src, tgt), src, tgt) == move
            stepped = apply(model, state, move)
            undone = apply(
                model, mirror_state(stepped, src, tgt), mirror_move(move, src, tgt)
            )
            ok = ok and undone == mirror_state(state, src, tgt)

    elapsed = time.monotonic() - t0
    _report(8, "property suites: projection, inequalities, field axioms, mirror", ok, elapsed)
