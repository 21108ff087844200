"""The package's export list, and the functions that the system runs."""

import ast
import json
import pathlib
import subprocess
import sys

import lagrange_kit
import system_traffic

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent

# exports that no module and no benchmark loads yet, each with its reason
UNREACHED_EXPORTS = {
    "constant_term_supplement": "a paper statement that the identity catalog will check",
    "log_f_over_x": "a paper statement that the identity catalog will check",
    "run_all": "the catalog at its defaults, timed end to end by tests/test_acceptance.py",
}


def _loaded_names(paths):
    """The names the code of ``paths`` loads, as a Name or an Attribute;
    docstrings, comments and import lines do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_resolves_once():
    names = lagrange_kit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(lagrange_kit, name)]
    assert missing == []


def test_every_export_has_a_caller():
    package = pathlib.Path(lagrange_kit.__file__).parent
    loaded = _loaded_names(p for p in package.glob("*.py") if p.name != "__init__.py")
    loaded |= _loaded_names((ROOT / "perfbench").glob("*.py"))
    unreached = [
        name for name in lagrange_kit.__all__
        if name not in loaded and name not in UNREACHED_EXPORTS
    ]
    assert unreached == []
    # an allowed name leaves the list once it gains a caller or is deleted
    assert UNREACHED_EXPORTS.keys() <= set(lagrange_kit.__all__) - loaded


_IMPLICIT = "a protocol method that only str, repr, hash or a reflected / calls"
_PAPER_STATEMENT = "a paper statement that the identity catalog will check"

# functions that the system's traffic (tests/system_traffic.py) never
# enters, each with its reason
UNTRACED = {
    **dict.fromkeys((
        "identities.RationalFunction.__str__",
        "scalars.MultiPoly.__rtruediv__",
        "scalars.MultiPoly.__hash__",
        "scalars.MultiPoly.__str__",
        "scalars.MultiPoly.__repr__",
        "series._Series.__rtruediv__",
        "series._Series.__hash__",
        "series._Series.__str__",
        "series._Series.__repr__",
    ), _IMPLICIT),
    "series._render": "the text of a series, which only str reaches",
    "trees._PackedTrees.__getitem__": "Sequence declares it abstract",
    "lagrange.constant_term_supplement": _PAPER_STATEMENT,
    "lagrange.log_f_over_x": _PAPER_STATEMENT,
    "trees.labeled_forest_child_formula": (
        "the closed form of count_labeled_forests, whose only system caller "
        "is the census benchmark; the next benchmark change decides both"
    ),
}


def _defs(tree, prefix=""):
    """(qualified name, node) of every def under ``tree``: functions,
    methods and nested functions, named through their classes and
    enclosing functions."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _defs(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node, prefix + node.name + ".")
        else:
            yield from _defs(node, prefix)


def test_every_src_function_runs_on_a_system_path():
    # the traffic calls the routines of the perfbench jobs by these names
    perfbench = _loaded_names((ROOT / "perfbench").glob("*.py"))
    assert set(system_traffic.PERFBENCH_NAMES) - perfbench == set()
    package = pathlib.Path(lagrange_kit.__file__).parent
    run = subprocess.run(
        [sys.executable, str(TESTS / "system_traffic.py"), str(package.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    entered = {}
    for file, name, line in json.loads(run.stdout):
        entered.setdefault((file, name), []).append(line)
    not_entered = []
    for path in sorted(package.glob("*.py")):
        for qualname, node in _defs(ast.parse(path.read_text())):
            # a decorated function's code object starts at its first
            # decorator (CPython 3.8 to 3.12), an undecorated one at its
            # def line: both lie in this range
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            lines = entered.get((path.name, node.name), ())
            if not any(first <= line <= node.lineno for line in lines):
                not_entered.append("%s.%s" % (path.stem, qualname))
    untraced = [name for name in not_entered if name not in UNTRACED]
    assert untraced == [], "no system path enters " + ", ".join(untraced)
    # an allowed name leaves the list once it is entered or deleted
    assert UNTRACED.keys() - set(not_entered) == set()
