"""Fixed pure-Python work that measures how fast the machine is right now.

The benchmark runs this before and after every timed command and rescales
the command's wall time by the speed it measures, because on a shared
machine the speed drifts by tens of percent within minutes.  It imports
nothing from ``hanoilab``, so no change to the library can move it.

The work mixes the two kinds that dominate the library: a breadth-first
search over the tuple states of the classical puzzle (dict, set and tuple
operations, like the oracle) and exact big-integer and fraction arithmetic
with decimal formatting (like the recurrences and the CLI output).  Either
kind alone tracked some slowdowns of the other kind's workloads poorly.
"""

from fractions import Fraction


def search(n: int) -> int:
    start = (tuple(range(n, 0, -1)), (), ())
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for i in range(3):
                if not state[i]:
                    continue
                disc = state[i][-1]
                for j in range(3):
                    if i == j or (state[j] and state[j][-1] < disc):
                        continue
                    new = list(state)
                    new[i] = state[i][:-1]
                    new[j] = state[j] + (disc,)
                    new = tuple(new)
                    if new not in seen:
                        seen.add(new)
                        nxt.append(new)
        frontier = nxt
    return len(seen)


def arithmetic(k_max: int) -> int:
    digits = 0
    x = Fraction(1)
    for k in range(1, k_max):
        digits += len(str(3**k + 2 ** (k + 7)))
        x = (x * 7 + Fraction(k, 3)) / 5
    return digits + len(",".join(str(i * i) for i in range(k_max * 25)))


if __name__ == "__main__":
    if search(8) != 3**8 or arithmetic(1500) <= 0:
        raise SystemExit("calibration work went wrong")
