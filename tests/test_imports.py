"""Import hygiene: the package exports exactly its submodules' public names,
and no scipy module loads at run time.

pytest's ``filterwarnings`` setting names ``scipy.integrate.IntegrationWarning``
and so imports ``scipy.integrate`` into the test process; the scipy check runs
in a fresh interpreter instead.
"""

import os
import pathlib
import subprocess
import sys

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


def _run_fresh(script: str) -> list:
    """stdout lines of ``script`` run in a fresh interpreter on the source tree."""
    env = dict(os.environ)
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
