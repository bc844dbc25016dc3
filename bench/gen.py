"""Seeded inputs and interpreter-free oracles for the benchmark.

Nothing here imports the package under test.  Values are plain Python
data: a nat is an int, a list is a tuple of ints, and a tree is either
an int (a leaf holding that nat) or a pair `(left, right)`.  The value
texts handed to the program are rendered here, and so are the texts the
program must print back, so every check compares two strings that the
package had no part in making.
"""

from __future__ import annotations

import random

# Size ladders.  Each stops at the largest size that still decides under
# the interpreter's default depth and fuel budgets at the commit that
# introduced the benchmark: `mapsuc` on 86 elements and `inc` on 257
# runs out of depth, and `mirror` inverse on a depth-12 tree runs out of
# fuel.  Raising the caps belongs to the change that lifts those limits,
# as a workload of its own.
MAPSUC_CAP = 85
INC_CAP = 256
MIRROR_CAP = 11

# The requests of one cycle of `deep` and `wide`.  Five rungs in equal
# number put the median on the middle rung and the 90th percentile on
# the top rung, so neither lands between two rungs whose times differ
# twofold.  The top two rungs of each `deep` function are one doubling,
# which the growth metric uses.
DEEP_RUNGS = (
    ("mapsuc", 21),
    ("mapsuc", 42),
    ("mapsuc", MAPSUC_CAP),
    ("inc", 128),
    ("inc", INC_CAP),
)
WIDE_RUNGS = tuple(("mirror", d) for d in (4, 5, 6, 7, 8))
# Depths 9, 10 and 11 cost about 0.5, 1 and 2 s a round trip, which
# would leave too few requests in a run for a 90th percentile; the traced
# run times depths 10 and 11 alone, for the top doubling of the ladder.
WIDE_GROWTH = (("mirror", MIRROR_CAP - 1), ("mirror", MIRROR_CAP))

# Element nats stay small, so list and tree sizes, not element sizes,
# set the cost.
MAX_ELEMENT = 3


# ---------------------------------------------------------------------------
# Rendering, in the program's own sugar: `[]`, `h : t`, `(a, b)`


def nat_text(k: int) -> str:
    return "[zero]" if k == 0 else "[suc " * k + "[zero]" + "]" * k


def list_text(xs: tuple[int, ...]) -> str:
    return " : ".join([nat_text(x) for x in xs] + ["[]"])


def tree_text(t) -> str:
    if isinstance(t, int):
        return f"[leaf {nat_text(t)}]"
    return f"[node {tree_text(t[0])} {tree_text(t[1])}]"


def nat_nodes(k: int) -> int:
    return k + 1


def list_nodes(xs: tuple[int, ...]) -> int:
    return 1 + sum(1 + nat_nodes(x) for x in xs)


def tree_nodes(t) -> int:
    if isinstance(t, int):
        return 1 + nat_nodes(t)
    return 1 + tree_nodes(t[0]) + tree_nodes(t[1])


# ---------------------------------------------------------------------------
# Oracles


def mapsuc_oracle(xs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + 1 for x in xs)


def inc_oracle(k: int) -> int:
    return k + 1


def mirror_oracle(t):
    if isinstance(t, int):
        return t
    return (mirror_oracle(t[1]), mirror_oracle(t[0]))


# ---------------------------------------------------------------------------
# Run requests


class Request:
    """One `jeopardy run` input with the texts a correct program prints."""

    def __init__(self, function: str, size: int, text: str, forward_text: str, nodes: int):
        self.function = function
        self.size = size
        self.text = text
        self.forward_text = forward_text
        self.nodes = nodes


def make_request(function: str, size: int, rng: random.Random) -> Request:
    if function == "mapsuc":
        xs = tuple(rng.randint(0, MAX_ELEMENT) for _ in range(size))
        return Request(function, size, list_text(xs), list_text(mapsuc_oracle(xs)), list_nodes(xs))
    if function == "inc":
        return Request(function, size, nat_text(size), nat_text(inc_oracle(size)), nat_nodes(size))
    if function == "mirror":
        t = balanced_tree(size, rng)
        return Request(function, size, tree_text(t), tree_text(mirror_oracle(t)), tree_nodes(t))
    raise ValueError(f"unknown function {function!r}")


def scale(function: str, size: int) -> int:
    """The input size a rung stands for: elements, the nat, or leaves."""
    return 2**size if function == "mirror" else size


def balanced_tree(depth: int, rng: random.Random):
    if depth == 0:
        return rng.randint(0, MAX_ELEMENT)
    return (balanced_tree(depth - 1, rng), balanced_tree(depth - 1, rng))


def request_cycle(rungs, rng: random.Random) -> list[Request]:
    """One request per rung, in a seeded order."""
    order = list(rungs)
    rng.shuffle(order)
    return [make_request(f, n, rng) for f, n in order]


# ---------------------------------------------------------------------------
# Generated programs for `check`

PRELUDE = """\
-- Generated program: list, tree and pair recursions over nat.

data nat = [zero] [suc nat].

data list = [nil] [cons nat list].

data tree = [leaf nat] [node tree tree].

data pair = [pair nat nat].
"""

# Defects whose diagnostic is unambiguous: each breaks linearity in one
# way only, so the checker has exactly one code to report for it.
DUP = "T002"
DROP = "T003"


class GeneratedProgram:
    """Source text and the diagnostic codes the checker must report."""

    def __init__(self, source: str, codes: frozenset[str]):
        self.source = source
        self.codes = codes
        self.lines = source.count("\n")

    @property
    def accepted(self) -> bool:
        return not self.codes


def _clean(kind: str, k: int, nat_fns: list[str], list_fns: list[str], rng: random.Random) -> str:
    g, h = rng.choice(nat_fns), rng.choice(nat_fns)
    if kind == "nat-inc":
        return f"nat-{k} (n : nat) : nat = [suc n]."
    if kind == "nat-let":
        return f"nat-{k} (n : nat) : nat =\n  let m = {g} n in\n  let j = {h} m in\n  [suc j]."
    if kind == "nat-copy":
        return f"nat-{k} ([zero] : nat) : nat = [zero].\nnat-{k} [suc j] = [suc (nat-{k} j)]."
    if kind == "list-map":
        return f"list-{k} ([] : list) : list = [].\nlist-{k} (x : xs) = {g} x : list-{k} xs."
    if kind == "list-let":
        inner = rng.choice(list_fns)
        return (
            f"list-{k} ([] : list) : list = [].\n"
            f"list-{k} (x : xs) =\n  let ys = {inner} xs in\n  {g} x : ys."
        )
    if kind == "tree-map":
        return (
            f"tree-{k} ([leaf n] : tree) : tree = [leaf ({g} n)].\n"
            f"tree-{k} [node l r] = [node (tree-{k} r) (tree-{k} l)]."
        )
    if kind == "tree-let":
        return (
            f"tree-{k} ([leaf n] : tree) : tree = let m = {g} n in [leaf m].\n"
            f"tree-{k} [node l r] = [node (tree-{k} l) (tree-{k} r)]."
        )
    if kind == "pair-swap":
        return f"pair-{k} ((a, b) : pair) : pair = ({g} b, {h} a)."
    raise ValueError(kind)


def _defect(code: str, k: int, nat_fns: list[str], list_fns: list[str], rng: random.Random) -> str:
    g, h = rng.choice(nat_fns), rng.choice(nat_fns)
    if code == DUP:
        if rng.random() < 0.5:
            return f"dup-{k} (n : nat) : pair = ({g} n, {h} n)."
        return f"dup-{k} ([] : list) : list = [].\ndup-{k} (x : xs) = {g} x : {h} x : dup-{k} xs."
    if rng.random() < 0.5:
        return f"drop-{k} ((a, b) : pair) : nat = {g} a."
    inner = rng.choice(list_fns)
    return f"drop-{k} ([] : list) : list = [].\ndrop-{k} (x : xs) = {inner} xs."


CLEAN_KINDS = (
    "nat-inc",
    "nat-let",
    "nat-copy",
    "list-map",
    "list-let",
    "tree-map",
    "tree-let",
    "pair-swap",
)


def generate_program(target_lines: int, rng: random.Random) -> GeneratedProgram:
    """A program of about `target_lines` lines with a known verdict.

    Half the programs are clean.  The rest carry one or two defects, each
    a duplicated (T002) or dropped (T003) variable in a function of its
    own, so a rejected program reports exactly the injected codes.
    """
    defects = []
    if rng.random() >= 0.5:
        defects = [rng.choice((DUP, DROP)) for _ in range(rng.randint(1, 2))]
    nat_fns = ["nat-0"]
    list_fns = ["list-1"]
    parts = [
        PRELUDE,
        "nat-0 (n : nat) : nat = [suc n].\n",
        "list-1 ([] : list) : list = [].\nlist-1 (x : xs) = nat-0 x : list-1 xs.\n",
    ]
    lines = PRELUDE.count("\n") + 5
    k = 2
    while lines < target_lines:
        kind = rng.choice(CLEAN_KINDS)
        text = _clean(kind, k, nat_fns, list_fns, rng)
        if kind.startswith("nat"):
            nat_fns.append(f"nat-{k}")
        elif kind.startswith("list"):
            list_fns.append(f"list-{k}")
        parts.append(text + "\n")
        lines += text.count("\n") + 2
        k += 1
    for code in defects:
        pos = rng.randrange(3, len(parts) + 1)
        parts.insert(pos, _defect(code, k, nat_fns, list_fns, rng) + "\n")
        k += 1
    parts.append(f"main {list_fns[-1]}.\n")
    return GeneratedProgram("\n".join(parts), frozenset(defects))


# Program sizes of one `big-program` cycle: evenly spaced, so the
# latency percentiles fall on a near-continuum of sizes.
PROGRAM_LINES = tuple(range(300, 1001, 50))


def program_pool(rng: random.Random) -> list[GeneratedProgram]:
    return [generate_program(n, rng) for n in PROGRAM_LINES]
