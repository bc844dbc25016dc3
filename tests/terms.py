"""Term helpers that only the tests need: a `let`-freeness check for
desugarer output and pattern instantiation as an oracle for `unify`."""

from jeopardy.syntax import Apply, Case, Con, Env, Term, Var, is_pattern


def is_core(t: Term) -> bool:
    """Core terms contain no `let` at any depth."""
    match t:
        case Var():
            return True
        case Con(_, args):
            return all(is_core(a) for a in args)
        case Apply(_, arg):
            return is_core(arg)
        case Case(sel, _, branches):
            return is_core(sel) and all(
                is_pattern(p) and is_core(b) for p, b in branches
            )
        case _:
            return False


def instantiate(pattern: Term, env: Env) -> Con:
    """Fill a pattern's variables from an environment; KeyError if one is missing."""
    match pattern:
        case Var(x):
            return env[x]
        case Con(name, args, span):
            return Con(name, tuple(instantiate(a, env) for a in args), span)
        case _:
            raise ValueError(f"not a pattern: {pattern!r}")

