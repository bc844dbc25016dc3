"""Every value of a type up to a constructor depth, shallowest first.

A bounded exhaustive enumeration in the manner of SmallCheck (Runciman,
Naylor & Lindblad, Haskell Symposium 2008): where a random generator
samples, this lists every value of depth at most k, so a search over it
either finds a counterexample of that size or shows there is none.  A
constructor fits depth k exactly when `suites.ValueGenerator` would draw
it there: one more than the largest minimum height of its argument types
is at most k.  A type with more values than `cap` up to k is cut at
`cap`, keeping the shallower ones.
"""

from itertools import product

from jeopardy.suites import ValueGenerator
from jeopardy.syntax import Con, Program

CAP = 3_000


def values(program: Program, depth: int, cap: int = CAP) -> dict[str, list[Con]]:
    """Each datatype's values of depth 1 to `depth`: those of depth k - 1
    first, then the new ones of depth k, each list at most `cap` long."""
    heights = ValueGenerator._min_heights(program)
    upto: dict[str, list[Con]] = {d.name: [] for d in program.datatypes}
    for k in range(1, depth + 1):
        below, upto = upto, {}
        for d in program.datatypes:
            found = list(below[d.name])
            seen = set(found)
            for c in d.ctors:
                if 1 + max((heights[t] for t in c.arg_types), default=0) > k:
                    continue
                for args in product(*(below[t] for t in c.arg_types)):
                    if len(found) >= cap:
                        break
                    v = Con(c.name, args)
                    if v not in seen:
                        seen.add(v)
                        found.append(v)
            upto[d.name] = found
    return upto
