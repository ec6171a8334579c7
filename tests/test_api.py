"""The package's declared public API: the root holds only the error
contract and the version, every name a module exports exists, every
error the package raises on purpose is a ``SliptsimError``, and the
public surface of the model and CLI modules does not grow."""

import ast
import builtins
import importlib
import inspect
import pkgutil

import pytest

import sliptsim
from chain import run_fresh
from sliptsim import SliptsimError

MODULES = ["sliptsim"] + [
    f"sliptsim.{info.name}" for info in pkgutil.iter_modules(sliptsim.__path__)
]

# the modules whose surface ROADMAP aim 2 counts
SURFACE_MODULES = [
    f"sliptsim.{name}"
    for name in ("ppc", "link", "ofdm", "loading", "qam", "calibrate", "presets", "io", "cli")
]


def test_the_root_exports_the_error_contract_and_the_version():
    assert sorted(sliptsim.__all__) == ["ParameterError", "SliptsimError", "__version__"]


def test_importing_the_root_loads_no_model():
    probe = "\n".join([
        "import sys, sliptsim",
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))",
    ])
    assert run_fresh(probe) == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def raised_class_names(source: str):
    """(line, name) of each raise statement's class; a bare re-raise has none."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, ast.unparse(exc)


@pytest.mark.parametrize("name", MODULES)
def test_every_raise_names_a_package_error(name):
    module = importlib.import_module(name)
    wrong = [
        f"line {line}: raise {cls}"
        for line, cls in raised_class_names(inspect.getsource(module))
        if not (inspect.isclass(getattr(module, cls, None))
                and issubclass(getattr(module, cls), SliptsimError))
    ]
    assert not wrong, f"{name} raises errors outside the package family: {wrong}"


@pytest.mark.parametrize("name", MODULES)
def test_exported_errors_are_package_errors_with_a_builtin_parent(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", []):
        cls = getattr(module, attr)
        if inspect.isclass(cls) and issubclass(cls, BaseException):
            assert issubclass(cls, SliptsimError), f"{name}.{attr}"
            assert any(
                base is getattr(builtins, base.__name__, None) and base is not BaseException
                for base in cls.__mro__
            ), f"{name}.{attr} has no builtin parent"


def defaulted_parameters(function: ast.FunctionDef) -> int:
    args = function.args
    return len(args.defaults) + sum(default is not None for default in args.kw_defaults)


def surface(source: str) -> tuple[int, int]:
    """(public functions, settable values) of one module.

    Public functions are the module-level ``def``s without a leading
    underscore.  Settable values are the dataclass fields plus the defaulted
    parameters of public functions and methods.
    """
    functions = settable = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            functions += 1
            settable += defaulted_parameters(node)
        elif isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                settable += sum(isinstance(item, ast.AnnAssign) for item in node.body)
            settable += sum(
                defaulted_parameters(item) for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )
    return functions, settable


def test_the_public_surface_does_not_grow():
    # ceilings at the current counts: a change that adds a public function
    # or a settable value raises them in its own diff
    counts = [surface(inspect.getsource(importlib.import_module(n))) for n in SURFACE_MODULES]
    functions, settable = map(sum, zip(*counts))
    assert functions <= 60
    assert settable <= 113
