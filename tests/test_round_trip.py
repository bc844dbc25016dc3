"""Inversion is exactly the inverse of forward evaluation, on generated programs.

The generator draws typed, linear programs over `nat` and `tree`: one to
three functions of one to three clauses each, whose bodies use every
pattern variable exactly once, in constructors, calls of earlier
functions and of their inverses, `let` and `case` on a call.  A `let` or
branch pattern may rebind, and so shadow, a variable that its bound term
or selector consumes.  A function calls itself only on a variable bound
strictly inside its pattern, so forward evaluation terminates.  On
every program the checker accepts, every function must satisfy

1. forward success => inverting the result gives the input back, or is
   undecided;
2. inverse success => running the preimage forward gives the value that
   was inverted: inversion never returns a value that forward does not
   map to the output;
3. the interpreter's side table only saves budget: a run it changes
   decides as a run without it does (`test_side_table.assert_saves`).

Example generation is derandomized with a fixed budget, so the verdict
and the run time are the same on every run.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import jeopardy
from jeopardy.pretty import pretty_value
from jeopardy.suites import ValueGenerator
from jeopardy.syntax import Apply, FunRef
from jeopardy.typecheck import check_program

from test_side_table import DATA, assert_saves

# The constructors of each type, with their argument types.
SIGNATURE = {
    "nat": (("zero", ()), ("suc", ("nat",))),
    "tree": (("leaf", ("nat",)), ("node", ("tree", "tree"))),
}
TYPES = sorted(SIGNATURE)
FUEL = 3_000


class Draft:
    """One program being drawn: the functions so far and a name supply."""

    def __init__(self, draw):
        self.draw = draw
        self.functions = []  # (name, argument type, result type), callable by later ones
        self.fresh = 0

    def var(self, ty, shadow):
        """A fresh name, or sometimes the name of a variable of type `ty` in
        `shadow`, taken out of it so that one pattern binds it once."""
        same = [v for v in shadow if v[1] == ty]
        if same and self.draw(st.booleans()):
            v = self.draw(st.sampled_from(same))
            shadow.remove(v)
            return v[0]
        self.fresh += 1
        return f"x{self.fresh}"

    def pattern(self, ty, depth, argument=False, inside=False, shadow=()):
        """A pattern of type `ty` and its variables as (name, type, sub):
        `sub` marks a variable bound strictly inside a function's argument
        pattern, the only kind a function may call itself on.  Its variables
        may rebind names from `shadow`, variables consumed just before."""
        if depth == 0 or self.draw(st.integers(0, 2)) == 0:
            name = self.var(ty, shadow)
            return name, [(name, ty, argument and inside)]
        ctor, arg_types = self.draw(st.sampled_from(SIGNATURE[ty]))
        texts, names = [ctor], []
        for arg_ty in arg_types:
            text, bound = self.pattern(arg_ty, depth - 1, argument, True, shadow)
            texts.append(text)
            names += bound
        return f"[{' '.join(texts)}]", names

    def converters(self, me, var):
        """Calls that turn the single variable `var` into a `nat`."""
        name, ty, sub = var
        calls = [f"({g} {name})" for g, a, r in self.functions if (a, r) == (ty, "nat")]
        if sub and me[1:] == (ty, "nat"):
            calls.append(f"({me[0]} {name})")
        return calls

    def feasible(self, me, ty, names):
        """Can a term of type `ty` use exactly `names`?  A `tree` holds any
        number of variables; a `nat` at most one."""
        if ty == "tree" or not names:
            return True
        return len(names) == 1 and (names[0][1] == "nat" or bool(self.converters(me, names[0])))

    def split(self, names):
        left = [n for n in names if self.draw(st.booleans())]
        return left, [n for n in names if n not in left]

    def plain(self, me, ty, names):
        """A term of type `ty` using exactly `names`, drawing no choices."""
        if ty == "nat":
            if not names:
                return "[zero]"
            name, var_ty, _ = names[0]
            return name if var_ty == "nat" else self.converters(me, names[0])[0]
        if not names:
            return "[leaf [zero]]"
        if len(names) == 1:
            name, var_ty, _ = names[0]
            return name if var_ty == "tree" else f"[leaf {name}]"
        half = len(names) // 2
        return f"[node {self.plain(me, ty, names[:half])} {self.plain(me, ty, names[half:])}]"

    def term(self, me, ty, names, depth):
        """A term of type `ty` that uses each of `names` exactly once."""
        built = None
        if depth > 0:
            forms = [self.constructor, self.call, self.let, self.case]
            if self.recursive(me, ty, names):
                forms.append(self.recurse)
            built = self.draw(st.sampled_from(forms))(me, ty, names, depth - 1)
        return self.plain(me, ty, names) if built is None else built

    @staticmethod
    def recurse(me, ty, names, depth):
        return f"({me[0]} {names[0][0]})"

    def constructor(self, me, ty, names, depth):
        ctor, arg_types = self.draw(st.sampled_from(SIGNATURE[ty]))
        if not arg_types:
            return None if names else f"[{ctor}]"
        parts = [names] if len(arg_types) == 1 else list(self.split(names))
        if not all(self.feasible(me, a, p) for a, p in zip(arg_types, parts)):
            return None
        args = [self.term(me, a, p, depth) for a, p in zip(arg_types, parts)]
        return f"[{' '.join([ctor, *args])}]"

    @staticmethod
    def recursive(me, res, names):
        """Can `me` call itself here: on one variable bound inside its pattern?"""
        return me[2] == res and len(names) == 1 and names[0][1:] == (me[1], True)

    def callee(self, me, res, names):
        """A call of result type `res` on an argument using `names`: an
        earlier function or its inverse on any term, or `me` on one inner
        variable."""
        options = [(g, a) for g, a, r in self.functions if r == res and self.feasible(me, a, names)]
        options += [
            (f"(invert {g})", r)
            for g, a, r in self.functions
            if a == res and self.feasible(me, r, names)
        ]
        if self.recursive(me, res, names):
            options.append((me[0], None))
        if not options:
            return None
        return self.draw(st.sampled_from(options))

    def call(self, me, ty, names, depth):
        found = self.callee(me, ty, names)
        if found is None:
            return None
        g, arg_ty = found
        arg = names[0][0] if arg_ty is None else self.term(me, arg_ty, names, depth)
        return f"({g} {arg})"

    def let(self, me, ty, names, depth):
        bound_ty = self.draw(st.sampled_from(TYPES))
        used, rest = self.split(names)
        pattern, bound = self.pattern(bound_ty, 1, shadow=list(used))
        if not (self.feasible(me, bound_ty, used) and self.feasible(me, ty, rest + bound)):
            return None
        value = self.term(me, bound_ty, used, depth)
        body = self.term(me, ty, rest + bound, depth)
        return f"(let {pattern} : {bound_ty} = {value} in {body})"

    def case(self, me, ty, names, depth):
        sel_ty = self.draw(st.sampled_from(TYPES))
        used, rest = self.split(names)
        found = self.callee(me, sel_ty, used)
        if found is None:
            return None
        g, arg_ty = found
        arg = used[0][0] if arg_ty is None else self.term(me, arg_ty, used, depth)
        branches = []
        for _ in range(self.draw(st.integers(1, 3))):
            pattern, bound = self.pattern(sel_ty, 2, shadow=list(used))
            if not self.feasible(me, ty, rest + bound):
                return None
            branches.append(f"{pattern} -> {self.term(me, ty, rest + bound, depth)}")
        return f"(case {g} {arg} : {sel_ty} of {' ; '.join(branches)})"


@st.composite
def programs(draw):
    draft = Draft(draw)
    text = []
    for k in range(draw(st.integers(1, 3))):
        me = (f"f{k}", draw(st.sampled_from(TYPES)), draw(st.sampled_from(TYPES)))
        clauses = []
        for _ in range(draw(st.integers(1, 3))):
            pattern, names = draft.pattern(me[1], 2, argument=True)
            if draft.feasible(me, me[2], names):
                clauses.append((pattern, draft.term(me, me[2], names, 3)))
        if clauses:
            (pattern, body), *rest = clauses
            text.append(f"{me[0]} ({pattern} : {me[1]}) : {me[2]} = {body}.")
            text += [f"{me[0]} {p} = {b}." for p, b in rest]
            draft.functions.append(me)
    assume(draft.functions)
    return DATA + "\n".join(text) + f"\nmain {draft.functions[-1][0]}.\n"


def run(program, name, inversions, value):
    return jeopardy.evaluate(program, Apply(FunRef(name, inversions), value), fuel=FUEL)


def round_trip_failures(program, seed):
    """The runs that break property 1 and property 2, as readable lines."""
    rng = random.Random(seed)
    gen = ValueGenerator(program, rng, max_depth=4)
    forward_fails, inverse_fails = [], []
    for f in program.functions:
        for _ in range(3):
            x = gen.value(f.arg_type)
            out = run(program, f.name, 0, x)
            if out.ok:
                back = run(program, f.name, 1, out.value)
                if back.kind != "undecided" and back.value != x:
                    forward_fails.append(
                        f"{f.name} {pretty_value(x)} = {pretty_value(out.value)},"
                        f" but inverting it gives {back}"
                    )
            y = gen.value(f.result_type)
            back = run(program, f.name, 1, y)
            if back.ok:
                again = run(program, f.name, 0, back.value)
                if again.value != y:
                    inverse_fails.append(
                        f"invert {f.name} {pretty_value(y)} = {pretty_value(back.value)},"
                        f" but running it forward gives {again}"
                    )
    return forward_fails, inverse_fails


@settings(max_examples=400, deadline=None, derandomize=True)
@given(source=programs(), seed=st.integers(0, 2**32))
def test_inversion_is_the_inverse_of_forward(source, seed):
    program = jeopardy.compile_source(source)
    assert check_program(program).accepted, source
    forward_fails, inverse_fails = round_trip_failures(program, seed)
    assert forward_fails == [], source
    assert inverse_fails == [], source


def test_a_violation_inside_an_inverted_call_means_no_preimage():
    """Inverting `f` runs `h` forward inside the search, where `h`'s
    `MatchFailure` on `[suc [zero]]` means no derivation, not a fault."""
    program = jeopardy.compile_source(
        DATA
        + "h (n : nat) : nat = case n : nat of [zero] -> [zero].\n"
        + "f (x : nat) : nat = (invert h) x.\nmain f.\n"
    )
    assert check_program(program).accepted
    value = jeopardy.parse_value("[suc [zero]]")
    out = jeopardy.run_main(program, value, inverted=True)
    assert (out.violation, out.message) == (
        "MatchFailure",
        "no preimage: 'f' cannot produce [suc [zero]]",
    )
    assert_saves(program, "f", value, True)


@pytest.mark.parametrize("fuel, reason", [
    (10, "fuel exhausted"),
    (1_000, "recursion depth limit reached"),
    (100_000, "recursion depth limit reached"),
])
def test_a_repeated_goal_is_undecided_not_underivable(fuel, reason):
    """Pinned for ROADMAP item 5: a prototype rule that gave a goal already
    on its own search path no derivation broke property 2 on `f0`, whose
    first branch repeats the goal it was asked.  A cycle rule must leave
    that goal undecided, as the budget does today in both directions."""
    program = jeopardy.compile_source(
        DATA + "f0 ([suc x1] : nat) : nat = (f0 x1).\nf0 x2 = x2.\nmain f0.\n"
    )
    assert check_program(program).accepted
    for text in ("[zero]", "[suc [zero]]", "[suc [suc [zero]]]"):
        for inverted in (False, True):
            out = jeopardy.run_main(program, jeopardy.parse_value(text), inverted, fuel=fuel)
            assert (out.kind, out.message) == ("undecided", reason), (text, inverted)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(source=programs(), seed=st.integers(0, 2**32))
def test_the_side_table_only_saves_budget(source, seed):
    """`assert_saves` on these programs: a head set that excluded a value
    its body can produce would change a decided outcome here."""
    program = jeopardy.compile_source(source)
    gen = ValueGenerator(program, random.Random(seed), max_depth=4)
    for f in program.functions:
        for inverted in (False, True):
            value = gen.value(f.result_type if inverted else f.arg_type)
            assert_saves(program, f.name, value, inverted, fuels=(0, 1, 3, 10, 100, FUEL))
