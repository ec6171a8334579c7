"""The package's declared public API: the root holds only the error
contract and the version, each job loads only the layers it runs, every
name a module exports exists, every error the package raises on purpose
is a ``SliptsimError``, no module reads another's private names, each
bundled link constant has one owner, the public surface of the model and
CLI modules does not grow, and no public function or method of theirs
exists for the tests alone."""

import ast
import builtins
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import sliptsim
from chain import run_fresh
from sliptsim import SliptsimError, cli, constants, link, presets

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


# module families a job must not load; each name covers its submodules
# scipy.special costs about 0.3 s CPU of a fresh process; it loads at the
# first sector quadrature, string V(I) or exact BER, never at an import
SCIPY = ("scipy",)
NUMPY = ("numpy",) + SCIPY
# scipy.optimize costs 0.2-0.3 s CPU of a fresh process, scipy.sparse comes
# with it; the fit runs sliptsim.lsq, its port, so no job needs either
OPTIMIZER = ("scipy.optimize", "scipy.sparse")
# scipy.signal, with the scipy.stats it pulls in, costs about 0.8 s CPU of a
# fresh process; the modem filters with numpy alone
SIGNAL_STACK = ("scipy.signal", "scipy.stats")
# the modem and the link loop around it; a job that reads only the DC model
# and the receiver read-out (ppc) runs none of it
MODEM = ("sliptsim.link", "sliptsim.ofdm", "sliptsim.loading", "sliptsim.qam")

RUN_ONE_FRAME_LINK = """\
from sliptsim.link import run_link
from sliptsim.ofdm import OfdmConfig
from sliptsim.presets import default_receiver, default_transmitter
warnings.simplefilter('ignore')  # one frame is too few for the SNR estimate
run_link(default_transmitter(), default_receiver('S2'), OfdmConfig(),
         n_pilot_frames=1, n_measurement_frames=1, n_payload_frames=1)"""

MALFORMED_SPEC = """\
spec = pathlib.Path(sys.argv[1], 'spec.json')
spec.write_text(json.dumps({'kind': 'iv', 'preset': 'Z9'}))
code = run('--config', str(spec))"""

# job -> (its statements, the modules it must not load, its exit code).
# ``run(*argv)`` is the CLI's exit code with a scratch ``--out``; an import
# or library job leaves ``code`` None.
IMPORT_CONTRACT = {
    "import-sliptsim": ("import sliptsim", NUMPY, None),
    "import-io": ("import sliptsim.io", NUMPY, None),
    "import-presets": ("import sliptsim.presets", NUMPY, None),
    "import-cli": ("import sliptsim.cli", NUMPY, None),
    "cli-help": ("code = run('--help')", NUMPY, 0),
    "cli-no-job": ("code = run()", NUMPY, 2),
    "cli-safety": ("code = run('safety')", NUMPY, 0),
    "cli-malformed-spec": (MALFORMED_SPEC, NUMPY, 2),
    "cli-iv-L6": ("code = run('iv', '--preset', 'L6')", OPTIMIZER + MODEM, 0),
    "cli-bandwidth": ("code = run('bandwidth')", SCIPY + MODEM, 0),
    "cli-mismatch-L6": ("code = run('mismatch', '--preset', 'L6')", OPTIMIZER + MODEM, 0),
    "cli-reproduce-table1": ("code = run('reproduce', 'table1')", OPTIMIZER + MODEM, 0),
    "cli-calibrate": ("code = run('calibrate')", OPTIMIZER + MODEM, 0),
    "import-fit-link-modem-cli": (
        "import sliptsim.calibrate, sliptsim.cli, sliptsim.link, sliptsim.ofdm",
        SCIPY, None,
    ),
    "run-link": (RUN_ONE_FRAME_LINK, SIGNAL_STACK + OPTIMIZER, None),
    "cli-link-S2": ("code = run('link', '--preset', 'S2')", SIGNAL_STACK + OPTIMIZER, 0),
}

PROBE = """\
import json, pathlib, sys, warnings
code = None

def run(*argv):
    from sliptsim.cli import main
    try:
        return main([*argv, '--out', sys.argv[1]] if argv else [])
    except SystemExit as exc:  # --help
        return exc.code

{job}
print(code, sorted(m for m in sys.modules
                   if any(m == p or m.startswith(p + '.') for p in {families!r})))"""


@pytest.mark.parametrize("job", IMPORT_CONTRACT)
def test_a_job_loads_only_its_layers(job, tmp_path):
    statements, families, code = IMPORT_CONTRACT[job]
    probe = PROBE.format(job=statements, families=families)
    assert run_fresh(probe, str(tmp_path)) == f"{code} []"


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
    assert functions <= 53
    assert settable <= 106


# public functions and methods no src code calls, each with the reason it
# stays public (ROADMAP item numbers); the bench tracer binds the item-6
# entries by name
TEST_ONLY_API = {
    "string_voltage": "item 6: the bench tracer's ppc.string_voltage span",
    "short_circuit_current": "item 6: the bench tracer's ppc.short_circuit_current span",
    "imp_isc_ratio": "item 6: the bench tracer's ppc.imp_isc_ratio span",
    "overlap_add": "item 6: the bench tracer's ofdm.tx_shape span",
    "assemble_frame": "item 6: the bench tracer's ofdm.tx_shape span",
    "matched_filter": "item 6: the bench tracer's ofdm.matched_filter span",
    "channel_response": "item 3: the analytic H(f) of the per-carrier SNR path",
}


def public_definitions(module_name: str):
    """(qualified name, name) of a module's public functions and of the
    public methods and properties of its classes (``Class.method``)."""
    for node in ast.parse(inspect.getsource(importlib.import_module(module_name))).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def src_references(source: str) -> tuple[set, set]:
    """(names, attributes) through which ``source`` can reach a function:
    the names it calls or imports with ``from``, and the attributes it
    reads.  A bare name that is not called (a local variable, a parameter)
    reaches no function."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names.add(node.func.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


def test_src_references_count_no_bare_name():
    names, attributes = src_references(
        "from .ofdm import equalize\n"
        "def f(irradiance, x):\n"
        "    channel_response = x.gain\n"
        "    return clip(irradiance) + channel_response + x.assess(x)\n"
    )
    assert names == {"equalize", "clip"}
    assert attributes == {"gain", "assess"}


def test_every_public_function_has_a_src_caller_or_a_stated_reason():
    # aim 2's "no test-only API in src/": a caller is a call of the name, a
    # from-import of it or an attribute of its name in src/; a method is
    # reached only as an attribute
    src = Path(sliptsim.__file__).parent
    names, attributes = set(), set()
    for path in src.glob("*.py"):
        found = src_references(path.read_text(encoding="utf-8"))
        names |= found[0]
        attributes |= found[1]
    uncalled = sorted(
        qualified
        for module_name in SURFACE_MODULES
        for qualified, name in public_definitions(module_name)
        if name not in (attributes if "." in qualified else names | attributes)
    )
    assert uncalled == sorted(TEST_ONLY_API)
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    bench_source = "".join(path.read_text(encoding="utf-8") for path in bench.rglob("*.py"))
    for name, reason in TEST_ONLY_API.items():
        if reason.startswith("item 6"):
            assert f'"{name}"' in bench_source, f"the bench no longer binds {name}"


# single-underscore names a src module imports or reads from another one,
# each with its reason (ROADMAP aim 2: no private imports across modules)
PRIVATE_IMPORTS = {
    ("sliptsim.link", "sliptsim.ofdm", "_receive_batches"): (
        "aim 2: the payload burst's receive batches; a public name would add a "
        "function for one caller, and receive_blocks per batch restarts the "
        "overlap-save grid"
    ),
}


def is_private(name: str) -> bool:
    """A single-underscore name; dunder names such as ``__version__`` are public."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str):
    """(module, name) of each private package name ``source`` imports with
    ``from`` or reads as an attribute of a package module it imports.
    Relative imports resolve within the flat ``sliptsim`` package."""
    modules = {}  # local name -> the package module it binds
    found = set()

    def module_of(node):
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        if isinstance(node, ast.Attribute):
            parent = module_of(node.value)
            if parent and f"{parent}.{node.attr}" in MODULES:
                return f"{parent}.{node.attr}"
        return None

    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = node.module or ""
            if node.level:
                owner = "sliptsim" + (f".{owner}" if owner else "")
            if owner not in MODULES:
                continue
            for alias in node.names:
                if f"{owner}.{alias.name}" in MODULES:
                    modules[alias.asname or alias.name] = f"{owner}.{alias.name}"
                elif is_private(alias.name):
                    found.add((owner, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:
                        modules["sliptsim"] = "sliptsim"
    for node in ast.walk(tree):  # attributes, once every import has bound its name
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            owner = module_of(node.value)
            if owner:
                found.add((owner, node.attr))
    return found


def test_private_reads_resolve_imports_and_attributes():
    found = private_reads(
        "from . import ofdm, __version__\n"
        "from .ofdm import _receive_batches, receive_blocks\n"
        "from sliptsim.link import _apply_channel as channel\n"
        "import sliptsim.ppc as p\n"
        "import sliptsim.qam\n"
        "def f(x):\n"
        "    from .calibrate import _unreachable\n"
        "    return ofdm._PLAN_ROWS, ofdm.__all__, p._golden, sliptsim.qam._gray, x._local\n"
    )
    assert found == {
        ("sliptsim.ofdm", "_receive_batches"),
        ("sliptsim.link", "_apply_channel"),
        ("sliptsim.calibrate", "_unreachable"),
        ("sliptsim.ofdm", "_PLAN_ROWS"),
        ("sliptsim.ppc", "_golden"),
        ("sliptsim.qam", "_gray"),
    }


def test_no_module_reads_another_modules_private_names():
    found = {
        (name, owner, private)
        for name in MODULES
        for owner, private in private_reads(inspect.getsource(importlib.import_module(name)))
        if owner != name
    }
    assert found == set(PRIVATE_IMPORTS)


def float_literals(value: float):
    """(module, line) of every float literal equal to ``value`` in src."""
    for name in MODULES:
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(name)))):
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value == value:
                yield name, node.lineno


def test_the_link_constants_have_one_owner():
    # the BER target and the VCSEL's emitted power are written once, in
    # constants, and every default that carries them reads them from there
    for value in (constants.BER_TARGET, constants.DEFAULT_EMITTED_POWER_W):
        places = list(float_literals(value))
        assert [name for name, _ in places] == ["sliptsim.constants"], places
    assert link.BER_TARGET is constants.BER_TARGET
    assert presets.default_transmitter().emitted_power_w == constants.DEFAULT_EMITTED_POWER_W
    assert presets.default_beam().total_power_w == constants.DEFAULT_EMITTED_POWER_W
    defaults = {f.name: f.default for kind in ("iv", "link") for f in cli._KINDS[kind].fields}
    assert defaults["power_w"] == constants.DEFAULT_EMITTED_POWER_W
    assert defaults["ber_target"] == constants.BER_TARGET
