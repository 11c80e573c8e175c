import ast
import collections
import tokenize
from pathlib import Path

import numpy as np
import pytest

import a2l
from a2l import bandit, dynamics, fisher
from a2l.games import generate_game
from test_perfbench_names import traced_names


def test_every_export_resolves_to_a_callable_or_class():
    # a stale name in __all__ must not outlive the function it exported
    assert [name for name in a2l.__all__ if not callable(getattr(a2l, name, None))] == []


SRC = Path(a2l.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _public_defs(path):
    """(line, name) of each public class, undecorated function and method
    defined in a module; decorated functions, such as the verify suites that
    ``@suite`` registers, are reached through their registry."""
    tree = ast.parse(path.read_text())
    nodes = [n for n in tree.body if isinstance(n, ast.ClassDef)
             or isinstance(n, ast.FunctionDef) and not n.decorator_list]
    nodes += [m for n in tree.body if isinstance(n, ast.ClassDef)
              for m in n.body if isinstance(m, ast.FunctionDef)]
    return [(n.lineno, n.name) for n in nodes if not n.name.startswith("_")]


def _code_names(path):
    """(line, name) of each NAME token of a file: its code, not its strings
    or comments."""
    with path.open("rb") as f:
        return [(tok.start[0], tok.string) for tok in tokenize.tokenize(f.readline)
                if tok.type == tokenize.NAME]


def test_every_public_name_has_a_caller():
    # Library code that only tests reach is dead weight: each public name is
    # read as code in the package or the benchmark beside its own def line,
    # named in a "<module>.<name>" call that the benchmark traces, or exported.
    # A docstring, comment or other string that mentions it does not count.
    sites = collections.defaultdict(set)
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for line, name in _code_names(path):
            sites[name].add((path, line))
    traced = {part for dotted in traced_names() for part in dotted.split(".")}
    uncalled = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
                for line, name in _public_defs(path)
                if name not in a2l.__all__ and name not in traced
                and not sites[name] - {(path, line)}]
    assert not uncalled, f"read as code nowhere but on their def line: {uncalled}"


_RPS, _SPEC, _THEORY = generate_game("rps"), dynamics.LearnerSpec(), bandit.EpochSchedule()
_MARKET = fisher.random_linear_market(2, 2, seed=0)
# The five run entry points, each a call of its count: T or epochs.
_COUNTED_RUNS = {
    "run_full_feedback": ("T", lambda k: dynamics.run_full_feedback(_RPS, _SPEC, k)),
    "run_prd": ("T", lambda k: fisher.run_prd(_MARKET, k)),
    "run_a2l_prd": ("T", lambda k: fisher.run_a2l_prd(_MARKET, k)),
    "run_bandit": ("epochs", lambda k: bandit.run_bandit(_RPS, _THEORY, epochs=k)),
    "run_bandit_vs_environment": ("epochs", lambda k: bandit.run_bandit_vs_environment(
        2, lambda t: np.array([1.0, 0.0]), _THEORY, 1 / 12, epochs=k)),
}


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, "3", np.float64(3)], ids=repr)
@pytest.mark.parametrize("entry", sorted(_COUNTED_RUNS))
def test_every_run_refuses_a_count_that_is_not_a_positive_integer(entry, bad):
    name, run = _COUNTED_RUNS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got "):
        run(bad)


@pytest.mark.parametrize("entry", sorted(_COUNTED_RUNS))
def test_every_run_takes_a_numpy_integer_count(entry):
    _COUNTED_RUNS[entry][1](np.int64(3))


def _defaulted_params(path):
    """(callee, parameter, position) of each defaulted parameter of a public
    function, method or class defined in a module, position None for a
    keyword-only one.  A class takes its ``__init__``'s parameters, or a
    dataclass its fields; a method's position does not count self or cls."""
    tree = ast.parse(path.read_text())
    sigs = [(n.name, n.args, 0) for n in tree.body if isinstance(n, ast.FunctionDef)]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for m in (m for m in cls.body if isinstance(m, ast.FunctionDef)):
            static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
            sigs.append((cls.name if m.name == "__init__" else m.name, m.args, 0 if static else 1))
        if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
                      and "ClassVar" not in ast.unparse(s.annotation)]
            yield from ((cls.name, s.target.id, k) for k, s in enumerate(fields) if s.value)
    for callee, args, bound in sigs:
        if callee.startswith("_"):
            continue
        positional = (args.posonlyargs + args.args)[bound:]
        yield from ((callee, a.arg, k) for k, a in enumerate(positional)
                    if k >= len(positional) - len(args.defaults))
        yield from ((callee, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)


def _sets(call, param, position) -> bool:
    """Whether a call sets a parameter: by keyword, by position or through
    ``*`` or ``**``."""
    keywords = {k.arg for k in call.keywords}
    return (param in keywords or None in keywords
            or position is not None and (position < len(call.args) or any(
                isinstance(a, ast.Starred) for a in call.args)))


# Defaulted parameters that no call in the package or the benchmark sets, each
# with its reason.
_UNSET_ALLOWED = {
    ("cli.py", "main", "argv"): "the console-script entry calls main() with no argument; "
                                "argv is its hook for tests",
}


def test_every_public_parameter_has_a_caller():
    # An option that only tests set is dead weight, as a public name is: each
    # defaulted parameter is set by some call in the package or the benchmark,
    # the call matched by its callee's name.
    calls = collections.defaultdict(list)
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for call in (n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)):
            calls[getattr(call.func, "id", getattr(call.func, "attr", None))].append(call)
    unset = [(path.name, callee, param) for path in sorted(SRC.glob("*.py"))
             for callee, param, position in _defaulted_params(path)
             if not any(_sets(call, param, position) for call in calls[callee])]
    extra = sorted(set(unset) - set(_UNSET_ALLOWED))
    assert not extra, f"defaulted parameters that no call sets: {extra}"
    assert set(_UNSET_ALLOWED) <= set(unset), "an allowed parameter now has a caller"
