"""Fresh-interpreter checks: the package exports exactly its submodules'
public names, no scipy module loads at run time, and results do not depend on
the SIMD kernels numpy dispatches.

pytest's ``filterwarnings`` setting names ``scipy.integrate.IntegrationWarning``
and so imports ``scipy.integrate`` into the test process; the scipy check runs
in a fresh interpreter instead.
"""

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


def test_package_exports_are_the_submodule_exports():
    submodules = (errors, marginals, copulas, asymptotics, montecarlo)
    assert len(set(tailsum.__all__)) == len(tailsum.__all__)
    assert set(tailsum.__all__) == {"__version__"}.union(*(m.__all__ for m in submodules))
    for module in submodules:
        for name in module.__all__:
            assert getattr(tailsum, name) is getattr(module, name), name


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
