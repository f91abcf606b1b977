"""Reference solvers: the list-building recursions that `hanoilab.solvers`
used before its solvers became block-memoised rules.

Each solver appends one move per recursive call to a list.  It shares no
expansion or length code with the library; tests compare the sequences
and the pre-computed lengths of `hanoilab.solvers` against it.
"""

from __future__ import annotations

from hanoilab.model import MOVES, Move, MoveGraph, mirror_sequence, third_peg


def _check_transfer(src: int, tgt: int, n: int) -> None:
    if src == tgt:
        raise ValueError("src and tgt must differ")
    if src not in (1, 2, 3) or tgt not in (1, 2, 3):
        raise ValueError("pegs must be in 1..3")
    if n < 0:
        raise ValueError("disc count must be >= 0")


def classical_solve(n: int, src: int, tgt: int) -> list[Move]:
    """The classical recursion: park n-1 discs on the spare peg, move the
    largest, bring the n-1 back on top.  Length is 2^n - 1."""
    _check_transfer(src, tgt, n)
    moves: list[Move] = []

    def go(m: int, i: int, j: int) -> None:
        if m == 0:
            return
        k = third_peg(i, j)
        go(m - 1, i, k)
        moves.append(MOVES[i, j])
        go(m - 1, k, j)

    go(n, src, tgt)
    return moves


def directed_move(graph: MoveGraph, src: int, tgt: int, n: int) -> list[Move]:
    """Transfer under a restricted move digraph (classical placement rule).

    When the edge src>tgt exists the classical recursion applies; when it
    does not, the largest disc detours over the auxiliary peg while the
    smaller discs shuttle around it.  Strong connectivity guarantees the
    detour edges exist.
    """
    _check_transfer(src, tgt, n)
    if not graph.is_strongly_connected():
        raise ValueError("move graph must be strongly connected")
    moves: list[Move] = []

    def go(i: int, j: int, m: int) -> None:
        if m == 0:
            return
        k = third_peg(i, j)
        if graph.has_edge(i, j):
            go(i, k, m - 1)
            moves.append(MOVES[i, j])
            go(k, j, m - 1)
        else:
            go(i, j, m - 1)
            moves.append(MOVES[i, k])
            go(j, i, m - 1)
            moves.append(MOVES[k, j])
            go(i, j, m - 1)

    go(src, tgt, n)
    return moves


def zeta(n: int, C: int, src: int, tgt: int) -> list[Move]:
    """Gather-anywhere transfer for the distance-C model (complete graph).

    Up to C+1 discs move one by one (they land inverted, which distance C
    exactly allows).  Otherwise: park the n-C-1 smallest discs on the
    auxiliary peg, carry the C+1 largest straight across, then stack the
    small discs back on top.  Ends with all discs on `tgt` in a legal, not
    necessarily standard, order; length b(n) with b(m) = m for m <= C+1
    and b(n) = 2*b(n-C-1) + C + 1.
    """
    _check_transfer(src, tgt, n)
    if C < 1:
        raise ValueError("distance must be >= 1")
    moves: list[Move] = []

    def go(m: int, i: int, j: int) -> None:
        if m <= C + 1:
            moves.extend([MOVES[i, j]] * m)
            return
        k = third_peg(i, j)
        go(m - C - 1, i, k)
        moves.extend([MOVES[i, j]] * (C + 1))
        go(m - C - 1, k, j)

    go(n, src, tgt)
    return moves


def a_symmetric(n: int, C: int, src: int, tgt: int) -> list[Move]:
    """Standard-to-standard transfer built as a symmetric sequence.

    First half gathers the n-1 smaller discs on the auxiliary peg, the
    middle move carries the largest disc across, and the second half is
    the mirrored reverse of the first.  Length 2*b(n-1) + 1, odd.
    """
    _check_transfer(src, tgt, n)
    if C < 1:
        raise ValueError("distance must be >= 1")
    if n == 0:
        return []
    half = zeta(n - 1, C, src, third_peg(src, tgt))
    return half + [MOVES[src, tgt]] + mirror_sequence(half, src, tgt)


def q_sequence(n: int, C: int, src: int, tgt: int) -> list[Move]:
    """Five-step standard-to-standard transfer for the distance-C model.

    With k = C+1: gather the n-k small discs on the target, carry the k
    largest to the auxiliary peg one by one, shuttle the small discs back
    to the source, carry the k largest onto the (now empty) target - they
    arrive in standard order - and recurse on the n-k small discs.

    The recursion bottoms out in a symmetric transfer (2m-1 moves for
    1 <= m <= k discs): m bare direct moves would leave the pile inverted
    rather than standard.  Whenever the recursion bottoms out at a single
    disc (n = 1 mod k) the length is exactly the idealized
    x(n) = 2*b(n-k) + x(n-k) + 2k with base x(m) = m; otherwise it
    exceeds it by the bottom's extra m-1 moves (`recurrence.q_lengths`
    keeps the idealized system).
    """
    _check_transfer(src, tgt, n)
    if C < 1:
        raise ValueError("distance must be >= 1")
    k = C + 1
    if n <= k:
        return a_symmetric(n, C, src, tgt)
    aux = third_peg(src, tgt)
    return (
        zeta(n - k, C, src, tgt)
        + [MOVES[src, aux]] * k
        + zeta(n - k, C, tgt, src)
        + [MOVES[aux, tgt]] * k
        + q_sequence(n - k, C, src, tgt)
    )
