"""One error hierarchy: every dxdy error is a UsageError or a
ComputationError, and that branch alone decides the CLI exit status."""

import ast
import importlib
import math
import pathlib
import pkgutil

import pytest

import dxdy
import dxdy.cli
from dxdy.cli import main
from dxdy.errors import ComputationError, DxdyError, RangeError, UsageError
from dxdy.roots import RootFindingError, find_roots

SRC = pathlib.Path(dxdy.__file__).parent

#: each error class, its branch, and the builtin base it had before the
#: hierarchy, which it keeps so that ``except`` on that base still works
BRANCHES = {
    "ParseError": (UsageError, ValueError),
    "UnsupportedExpressionError": (UsageError, ValueError),
    "GradeError": (UsageError, ValueError),
    "CenterMismatchError": (UsageError, ValueError),
    "PoleOnContourError": (ComputationError, ValueError),
    "DecayError": (ComputationError, ValueError),
    "AxisPoleError": (ComputationError, ValueError),
    "PoleExpansionError": (ComputationError, ValueError),
    "WindowError": (ComputationError, ValueError),
    "SingularSampleError": (ComputationError, ValueError),
    "RootFindingError": (ComputationError, RuntimeError),
    "QuadratureError": (ComputationError, RuntimeError),
    "RangeError": (ComputationError, OverflowError),
}

#: the raises of builtin errors left in the package, each with its reason
ALLOWED_RAISES = {
    ("algebra.py", "complex_inv", "ZeroDivisionError"):
        "division by zero in an arithmetic primitive, as float division",
    ("algebra.py", "to_polar", "ZeroDivisionError"):
        "division by zero in an arithmetic primitive, as float division",
    ("series.py", "series_inv", "ZeroDivisionError"):
        "division by zero in an arithmetic primitive, as float division",
    ("residues.py", "residue_by_derivative_formula", "ZeroDivisionError"):
        "exact division by zero in the derivative route, as float division",
    ("exactmath.py", "stencil_weights", "ValueError"):
        "invariant: callers always pass more nodes than the order",
    ("polynomials.py", "Polynomial.int_pow", "ValueError"):
        "invariant: the expression fold never passes a negative power",
}

SCANNED = {"ValueError", "RuntimeError", "ZeroDivisionError", "OverflowError"}


def _error_classes():
    for info in pkgutil.iter_modules(dxdy.__path__):
        module = importlib.import_module(f"dxdy.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__):
                yield obj


def test_every_error_sits_in_one_branch_and_keeps_its_builtin_base():
    classes = {cls.__name__: cls for cls in _error_classes()}
    roots = {"DxdyError", "UsageError", "ComputationError"}
    assert set(classes) == set(BRANCHES) | roots
    assert issubclass(UsageError, (DxdyError, ValueError))
    assert issubclass(ComputationError, DxdyError)
    assert not issubclass(ComputationError, (UsageError, ValueError))
    for name, (branch, builtin) in BRANCHES.items():
        cls = classes[name]
        assert issubclass(cls, branch), name
        assert issubclass(cls, UsageError) != issubclass(
            cls, ComputationError), name
        assert issubclass(cls, builtin), name


class _Raises(ast.NodeVisitor):
    """(file, qualified function, name) of each raise of a scanned name."""

    def __init__(self, filename):
        self.filename = filename
        self.scope = []
        self.found = set()

    def _nested(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _nested

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in SCANNED:
            self.found.add((self.filename, ".".join(self.scope), exc.id))


def test_builtin_raises_are_only_the_allowed_ones():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _Raises(path.name)
        visitor.visit(ast.parse(path.read_text()))
        found |= visitor.found
    assert found == set(ALLOWED_RAISES)
    assert all(ALLOWED_RAISES.values())


@pytest.mark.parametrize("name,argv", [
    ("find_poles", ["residues", "1/z"]),
    ("laurent_expand", ["laurent", "1/z", "--center", "0,0", "--from", "-1",
                        "--to", "1"]),
    ("integrate_closed", ["integrate-contour", "1/z", "--center", "0,0",
                          "--radius", "1"]),
    ("classify_one_form", ["classify", "--k", "y", "--g", "0"]),
])
@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError,
                                   RuntimeError])
def test_cli_lets_a_builtin_error_propagate(name, argv, error, monkeypatch):
    def broken(*args, **kwargs):
        raise error("a bug")

    monkeypatch.setattr(dxdy.cli, name, broken)
    with pytest.raises(error, match="a bug"):
        main(argv)


@pytest.mark.parametrize("error,status", [
    (UsageError, 2), (ComputationError, 1), (RangeError, 1),
    (RootFindingError, 1)])
def test_the_branch_decides_the_exit_status(error, status, monkeypatch,
                                            capsys):
    def fails(*args):
        raise error("typed")

    monkeypatch.setattr(dxdy.cli, "find_poles", fails)
    assert main(["residues", "1/z"]) == status
    assert capsys.readouterr().err == "error: typed\n"


def test_find_roots_reports_an_overflowing_iteration():
    # (z-1)^40: the start radius 0.6*(1+C(40,20)) overflows x^40
    coeffs = [complex(math.comb(40, k) * (-1) ** k) for k in range(41)]
    with pytest.raises(RootFindingError, match="degree 40"):
        find_roots(coeffs)
    with pytest.raises(UsageError):
        find_roots([1.0])
