"""Fresh-interpreter checks: the package exports exactly its submodules'
public names, no scipy module loads at run time, and results do not depend on
the SIMD kernels numpy dispatches.

pytest's ``filterwarnings`` setting names ``scipy.integrate.IntegrationWarning``
and so imports ``scipy.integrate`` into the test process; the scipy check runs
in a fresh interpreter instead.
"""

import ast
import functools
import os
import pathlib
import subprocess
import sys

import pytest

import tailsum
from tailsum import asymptotics, copulas, errors, marginals, montecarlo

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, math, sys, tempfile

import tailsum.cli
from tailsum import (
    ParetoMarginal, delta_correction, gumbel_log_refined_traits, gumbel_pickands,
    var_from_tailprob_inversion,
)

with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as out:
    codes = [
        tailsum.cli.main(["check", "--family", "gumbel", "--phi", "10"]),
        tailsum.cli.main(["var", "--alpha", "2", "--family", "gumbel", "--phi", "1",
                          "--n", "20000", "--seed", "1"]),
        tailsum.cli.main(["tailprob", "--alpha", "0.8", "--family", "gumbel", "--phi", "10",
                          "--n", "2000", "--seed", "1"]),
        tailsum.cli.main(["reproduce-figures", "--n", "2000", "--seed", "1",
                          "--out-dir", out]),
    ]
m = ParetoMarginal(0.8, 1.0)
d = delta_correction(gumbel_log_refined_traits(10.0), m, m.quantile(0.999))
inv = var_from_tailprob_inversion(m, gumbel_pickands(10.0), 0.999)
print("codes", codes)
print("loaded", sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
print("finite", math.isfinite(d), math.isfinite(inv.inverted), math.isfinite(inv.formula))
"""


def _run_fresh(script: str, **environ: str) -> list:
    """stdout lines of ``script`` run in a fresh interpreter on the source tree,
    with the extra environment variables ``environ``."""
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_var_and_check_never_load_scipy():
    assert _run_fresh(SCRIPT) == ["codes [0, 0, 0, 0]", "loaded []", "finite True True True"]


NUMPY_FREE_SCRIPT = """
import sys, types

# the package's __init__ imports numpy; a stub package loads only copulas
package = types.ModuleType("tailsum")
package.__path__ = [{src!r}]
sys.modules["tailsum"] = package

from tailsum.copulas import check_assumptions, gumbel_pickands, make_survival_copula

gumbel_pickands(10.0)
check_assumptions(make_survival_copula("gumbel", phi=10.0))
print("numpy loaded", "numpy" in sys.modules)
"""


def test_gumbel_dependence_and_its_check_load_no_numpy():
    script = NUMPY_FREE_SCRIPT.format(src=str(SRC / "tailsum"))
    assert _run_fresh(script) == ["numpy loaded False"]


def test_package_exports_are_the_submodule_exports():
    submodules = (errors, marginals, copulas, asymptotics, montecarlo)
    assert len(set(tailsum.__all__)) == len(tailsum.__all__)
    assert set(tailsum.__all__) == {"__version__"}.union(*(m.__all__ for m in submodules))
    for module in submodules:
        for name in module.__all__:
            assert getattr(tailsum, name) is getattr(module, name), name
    # each public name is declared once, in its module's __all__: the package
    # file imports submodules or star-imports them, and lists no name itself
    tree = ast.parse((SRC / "tailsum" / "__init__.py").read_text())
    starred = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [alias.name for alias in node.names]
            if node.module is None:
                assert all((SRC / "tailsum" / f"{name}.py").is_file() for name in names), names
            else:
                assert names == ["*"], (node.module, names)
                starred.append(node.module)
    assert sorted(starred) == sorted(m.__name__.rsplit(".", 1)[1] for m in submodules)
    (listed,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets)
    ]
    strings = [
        node.value for node in ast.walk(listed)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert strings == ["__version__"]


def _imported_names(tree: ast.Module):
    """``(line, name)`` of each name an import statement in ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _private_definitions(tree: ast.Module):
    """``(line, name)`` of each private module-level function, class or
    constant of ``tree``; dunders such as ``__all__`` are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield node.lineno, name


def test_package_has_no_unread_import_or_private_name():
    # what a deletion can leave behind: an import that nothing reads any
    # more, or a private helper that only the deleted code called
    trees = {path.name: ast.parse(path.read_text()) for path in (SRC / "tailsum").glob("*.py")}
    assert len(trees) == 8, sorted(trees)
    loads = {}  # module -> the names it loads or lists in __all__
    package_reads = set()  # and, package-wide, attributes and imported names
    for module, tree in trees.items():
        loads[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                package_reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                package_reads.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and "__all__" in [
                getattr(t, "id", None) for t in node.targets
            ]:
                loads[module].update(
                    c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
                )
    package_reads.update(*loads.values())
    unread = []
    for module, tree in sorted(trees.items()):
        unread += [
            f"{module}:{line}: imports {name}, never read"
            for line, name in _imported_names(tree) if name not in loads[module]
        ]
        unread += [
            f"{module}:{line}: {name} is read nowhere in the package"
            for line, name in _private_definitions(tree) if name not in package_reads
        ]
    assert unread == []


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


# the default dispatch against the AVX-512 kernels disabled; numpy's log, exp
# and power give other last bits under the two
_DISPATCHES = ("", "X86_V4 AVX512_ICL AVX512_SPR")
needs_avx512 = pytest.mark.skipif(
    not _cpu_features().get("AVX512_SKX"), reason="numpy dispatches no AVX-512 kernels here"
)

CHECK_CSV_SCRIPT = """
import contextlib, io, os, sys, tempfile

import tailsum.cli

with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    for argv in (["--family", "gumbel", "--phi", "10"],
                 ["--family", "log-interaction", "--sigma", "0.5"]):
        path = os.path.join(out, "check.csv")
        tailsum.cli.main(["check", *argv, "--out-csv", path])
        with open(path) as f:
            sys.__stdout__.write(f.read())
"""

SAMPLE_DIGEST_SCRIPT = """
import hashlib

from tailsum import ParetoMarginal, sample_pairs

for family, phi in (("independence", None), ("gumbel", 10.0)):
    s = sample_pairs(ParetoMarginal(2.0, 1.0), family, 200000, 42, phi=phi, threads=1)
    print(family, hashlib.sha256(s.x.tobytes() + s.y.tobytes()).hexdigest())
"""


GRID_SCRIPT = """
from tailsum import ParetoMarginal, empirical_grid

# the ParetoMarginal(2, 1) quantiles at survival levels 1e-2, 1e-3, 1e-4, in
# Python floats, so both dispatches ask for the same thresholds
thresholds = [sf ** -0.5 - 1.0 for sf in (1e-2, 1e-3, 1e-4)]
for family, phi in (("independence", None), ("gumbel", 2.0), ("gumbel", 10.0)):
    tails, quantiles = empirical_grid(
        ParetoMarginal(2.0, 1.0), family, 1_000_000, 42, phi=phi,
        thresholds=thresholds, levels=(0.99, 0.999),
    )
    for kind, estimates in (("tail", tails), ("var", quantiles)):
        print(kind, family, phi, *map(repr, estimates))
"""


@functools.lru_cache(maxsize=None)
def _grid_estimates(dispatch: str) -> tuple:
    return tuple(_run_fresh(GRID_SCRIPT, NPY_DISABLE_CPU_FEATURES=dispatch))


def _grid_lines(kind: str) -> list:
    """The ``kind`` lines of the grid estimates under each dispatch."""
    return [
        [line for line in _grid_estimates(d) if line.startswith(kind + " ")] for d in _DISPATCHES
    ]


@needs_avx512
def test_grid_tail_estimates_do_not_depend_on_the_simd_dispatch():
    default, reduced = _grid_lines("tail")
    assert len(default) == 3 and default == reduced


@needs_avx512
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 22: a VaR estimate is an order statistic, whose value carries "
    "the last bits of the sampler's SIMD kernels",
)
def test_grid_var_estimates_do_not_depend_on_the_simd_dispatch():
    default, reduced = _grid_lines("var")
    assert len(default) == 3 and default == reduced


@needs_avx512
def test_check_evidence_does_not_depend_on_the_simd_dispatch():
    default, reduced = (
        _run_fresh(CHECK_CSV_SCRIPT, NPY_DISABLE_CPU_FEATURES=d) for d in _DISPATCHES
    )
    assert default and default == reduced


@needs_avx512
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 22: the sampler's numpy log, log1p, power and expm1 kernels "
    "differ in the last bits between SIMD targets",
)
def test_sample_does_not_depend_on_the_simd_dispatch():
    default, reduced = (
        _run_fresh(SAMPLE_DIGEST_SCRIPT, NPY_DISABLE_CPU_FEATURES=d) for d in _DISPATCHES
    )
    assert default == reduced
