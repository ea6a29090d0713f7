"""Package layering: occball modules import each other only at module level,
and only through public names, and only a pencil without numpy's dggev
loads scipy.

An import of an occball module inside a function body hides a dependency
from the module header and is how import cycles get papered over; this test
keeps every such import at the top of its module.  An underscore name is
private to its module, so no other occball module may import it: a helper
two modules need is public, or lives where both can reach it.  A public name
another module imports is in its home module's ``__all__``, so that list
states the whole of what the module offers the package.

scipy.linalg (with what it pulls in) costs about half of a cold start and
about 24 MiB, and the generalized eigenproblems of zeros, norms and synthesis
need only its LAPACK dggev, which numpy's own LAPACK also exports.
``linalg.pencil_eigvals`` calls that one through ctypes, and
``linalg.least_squares`` calls dgelsd the same way; each symbol is bound on
first use by ``linalg._lapack`` (the package's one ctypes import), and the
pencil's fallback for a numpy without dggev holds the package's one scipy
import.  So ``import occball`` binds no symbol, a fresh interpreter that
simulates, identifies and trains loads no scipy and binds dgelsd alone, and
one that also finds zeros and synthesizes a controller loads no scipy.linalg
wherever the dggev binding resolves.  (numpy itself imports ctypes, so the
bindings, not the module, are what work loads.)
Likewise ``import occball`` does not load numpy.random (about 10 ms); the
first draw does.

Tests and the benchmark import each name from the module that defines it:
``from occball.<module> import name`` names a def, class or assignment at
the top of that module, not a name the module itself imports, so moving a
definition moves its importers with it.

A seeded episode has one entry, ``cartpole.run_episode``, which evaluation,
angle probes, the CLI and SAC training all call; only it and the excitation
runs of ``sysid._collect_one`` (which bring their own block-seeded generators
and cart origin) call ``cartpole.simulate``.

A closed loop is stable by one rule, the one ``limits.linf_norm`` applies to
the eigenvalues it takes once per call (its norm is inf otherwise), so no
other module decides stability from a spectral radius: only the game Riccati
check ``synthesis._game_dare`` calls ``spectral_radius``, and it certifies a
stabilizing Riccati solution, not a norm.

A dataclass field that nothing reads is a result computed for no one, so every
field of a dataclass in the package is read as ``.field`` somewhere in the
package or the benchmark, outside its own class body.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import occball
from occball.cartpole import PhysicalParams

PACKAGE = Path(occball.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((PACKAGE.parent.parent / "bench").glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
SCIPY_HOME = ("linalg.py", "pencil_eigvals")
CTYPES_HOME = ("linalg.py", "_lapack")
SIMULATE_CALLERS = {("cartpole", "run_episode"), ("sysid", "_collect_one")}
SPECTRAL_RADIUS_CALLERS = {("synthesis", "_game_dare")}


def _is_occball_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "occball"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "occball" for alias in node.names)
    return False


def _function_body_imports(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if _is_occball_import(node):
                    yield func.name, node.lineno


def _private_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_occball_import(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield alias.name, node.lineno


def _exports(name: str):
    """The literal __all__ of occball module `name`, or None without one."""
    for node in ast.parse((PACKAGE / f"{name}.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return None


def _unexported_imports(tree):
    """(module, name, line) of each name imported from an occball module not in its __all__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_occball_import(node) and node.module:
            module = node.module.split(".")[-1]
            exports = _exports(module)
            for alias in node.names:
                if exports is None or alias.name not in exports:
                    yield module, alias.name, node.lineno


def _definitions(name: str) -> set:
    """The names occball module `name` binds at top level by def, class or assignment."""
    defined = set()
    for node in ast.parse((PACKAGE / f"{name}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return defined


def _borrowed_imports(tree):
    """(module, name, line) of each name imported from occball.<module> that it does not define."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").startswith("occball.")):
            module = node.module.split(".")[1]
            defined = _definitions(module)
            for alias in node.names:
                if alias.name not in defined:
                    yield module, alias.name, node.lineno


def _imports_of(tree, package):
    """(enclosing function name or None, line) of every import of package."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == package for name in names):
                yield func, child.lineno
            yield from visit(child, func)

    return list(visit(tree, None))


def _calls_of(tree, name):
    """(enclosing function name or None, line) of every call of name, bare or as an attribute."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                yield inner, child.lineno
            yield from visit(child, inner)

    return list(visit(tree, None))


def _dataclasses(tree):
    """(class node, field names) of every class decorated with dataclass."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            yield node, [stmt.target.id for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _attribute_reads(tree, skip=None) -> set:
    """Every name read as .name in tree, outside the node skip."""
    reads = set()
    stack = [tree]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if child is skip:
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                reads.add(child.attr)
            stack.append(child)
    return reads


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_occball_import_inside_functions(path):
    found = list(_function_body_imports(ast.parse(path.read_text())))
    assert not found, f"{path.name}: occball imports inside functions at {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    found = list(_private_imports(ast.parse(path.read_text())))
    assert not found, f"{path.name}: imports private occball names {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imported_names_are_exported(path):
    found = list(_unexported_imports(ast.parse(path.read_text())))
    assert not found, f"{path.name}: imports names missing from their module's __all__ {found}"


@pytest.mark.parametrize("path", TESTS + BENCH, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_name_the_defining_module(path):
    found = list(_borrowed_imports(ast.parse(path.read_text())))
    assert not found, f"{path.name}: imports names their module does not define {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_imported_only_by_pencil_eigvals(path):
    found = _imports_of(ast.parse(path.read_text()), "scipy")
    stray = [(func, line) for func, line in found if (path.name, func) != SCIPY_HOME]
    assert not stray, f"{path.name}: scipy imported outside pencil_eigvals at {stray}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_ctypes_imported_only_by_the_lapack_binding(path):
    found = _imports_of(ast.parse(path.read_text()), "ctypes")
    stray = [(func, line) for func, line in found if (path.name, func) != CTYPES_HOME]
    assert not stray, f"{path.name}: ctypes imported outside {CTYPES_HOME[1]} at {stray}"


def test_pencil_eigvals_holds_the_scipy_import():
    tree = ast.parse((PACKAGE / SCIPY_HOME[0]).read_text())
    assert [func for func, _ in _imports_of(tree, "scipy")] == [SCIPY_HOME[1]]
    assert [func for func, _ in _imports_of(tree, "ctypes")] == [CTYPES_HOME[1]]


def test_simulate_called_only_by_the_episode_and_excitation_entries():
    callers = {(path.stem, func) for path in MODULES
               for func, _ in _calls_of(ast.parse(path.read_text()), "simulate")}
    assert callers == SIMULATE_CALLERS


def test_stability_decided_by_linf_norm_alone():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    callers = {(stem, func) for stem, tree in trees.items()
               for func, _ in _calls_of(tree, "spectral_radius")}
    assert callers == SPECTRAL_RADIUS_CALLERS
    eigvals = [(stem, func) for stem in ("limits", "harness")
               for func, _ in _calls_of(trees[stem], "eigvals")]
    assert eigvals == [("limits", "linf_norm")]


def test_every_dataclass_field_is_read():
    trees = {path: ast.parse(path.read_text()) for path in MODULES + BENCH}
    reads = {path: _attribute_reads(tree) for path, tree in trees.items()}
    unread = []
    for path in MODULES:
        for cls, names in _dataclasses(trees[path]):
            elsewhere = _attribute_reads(trees[path], skip=cls).union(
                *(r for p, r in reads.items() if p != path))
            unread += [f"{path.stem}.{cls.name}.{name}" for name in names
                       if name not in elsewhere]
    assert BENCH and not unread, f"dataclass fields no code reads: {unread}"


COLD_START = """
import json, sys
import occball
from occball import (PhysicalParams, ZeroController, evaluate, linearize,
                     make_sensor, max_stabilized_angle, transmission_zeros)
from occball.harness import identify
from occball.linalg import StateSpaceModel, _lapack
from occball.sac import SacConfig, train
from occball.synthesis import build_generalized_plant, hinf_synthesize
from occball.sysid import collect_budget

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_loaded()
bound_after_import = _lapack.cache_info().currsize
random_after_import = "numpy.random" in sys.modules
futures_after_import = "concurrent.futures" in sys.modules
params = PhysicalParams(ell0=0.8)
sensor = make_sensor("depth_like", params)
ev = evaluate(ZeroController(), params, sensor, 2, seed=1)
angle = max_stabilized_angle(ZeroController(), params, sensor)
data = collect_budget(params, sensor, 300, seed=2)
models = [identify(method, data, params, 6, 4) for method in ("arxhk", "fullstate")]
after_fits = scipy_loaded()
config = SacConfig(hidden_widths=(16, 16), history_len=20, batch_size=16, warmup_steps=16, seed=3)
result = train(params, make_sensor("noise_free", params), config, max_episodes=2)
futures_after_train = "concurrent.futures" in sys.modules
after_work = scipy_loaded()
bound_before_pencils = _lapack.cache_info().currsize
zeros = transmission_zeros(linearize(PhysicalParams(ell0=0.8)))
plant = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
syn = hinf_synthesize(build_generalized_plant(plant, 100.0))
print(json.dumps({
    "after_import": after_import,
    "random_after_import": random_after_import,
    "futures": [futures_after_import, futures_after_train],
    "after_work": after_work,
    "after_fits": after_fits,
    "bound": [bound_after_import, bound_before_pencils, _lapack("dggev") is not None],
    "linalg_after_zeros": "scipy.linalg" in sys.modules,
    "synthesized": syn.feasible,
    "episodes": [len(ev.episodes), len(result.curve)],
    "train_steps": result.curve[-1][2],
    "model_orders": [m.n for m in models],
    "angle_deg": angle.angle_deg,
    "zeros": [[z.real, z.imag] for z in zeros],
}))
"""


def test_fresh_interpreter_loads_scipy_only_for_a_pencil():
    # pytest's own modules import scipy, so this runs in a new interpreter
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["after_import"] == [] and out["after_work"] == []
    # collecting and fitting (least squares through dgelsd) loads no scipy at all
    assert out["after_fits"] == []
    # numpy.random loads at the first draw, not with the package
    assert not out["random_after_import"]
    assert out["episodes"] == [2, 2] and out["model_orders"] == [4, 4]
    assert out["train_steps"] > 16  # past the warm-up, so sac_update ran
    # the update's thread pool loads concurrent.futures (and logging) on first use
    assert out["futures"] == [False, True]
    assert 0.0 <= out["angle_deg"] < 15.0
    # the import binds no LAPACK symbol, and the work before the first pencil binds
    # only the fits' dgelsd; with dggev bound, no pencil needs scipy
    after_import, before_pencils, ggev_bound = out["bound"]
    assert after_import == 0 and before_pencils == 1 and out["synthesized"]
    assert out["linalg_after_zeros"] == (not ggev_bound)
    params = PhysicalParams(ell0=0.8)
    rate = params.tau * (params.g / (params.ell - params.ell0)) ** 0.5
    got = sorted(re for re, _ in out["zeros"])
    assert got == pytest.approx([1.0 - rate, 1.0 + rate], abs=1e-6)
    assert all(im == 0.0 for _, im in out["zeros"])
