"""Import hygiene: scipy loads only where quadrature or root finding runs.

pytest's ``filterwarnings`` setting names ``scipy.integrate.IntegrationWarning``
and so imports ``scipy.integrate`` into the test process; the checks run in a
fresh interpreter instead.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, math, sys

import tailsum.cli

heavy = ("scipy.integrate", "scipy.optimize", "scipy.special")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        tailsum.cli.main(["check", "--family", "gumbel", "--phi", "10"]),
        tailsum.cli.main(["var", "--alpha", "2", "--family", "gumbel", "--phi", "1",
                          "--n", "20000", "--seed", "1"]),
    ]
print("codes", codes)
print("loaded", [name for name in heavy if name in sys.modules])

from tailsum import (
    ParetoMarginal, delta_correction, gumbel_log_refined_traits, gumbel_pickands,
    var_from_tailprob_inversion,
)

m = ParetoMarginal(0.8, 1.0)
d = delta_correction(gumbel_log_refined_traits(10.0), m, m.quantile(0.999))
inv = var_from_tailprob_inversion(m, gumbel_pickands(10.0), 0.999)
print("finite", math.isfinite(d), math.isfinite(inv.inverted), math.isfinite(inv.formula))
"""


def test_import_var_and_check_never_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["codes [0, 0]", "loaded []", "finite True True True"]
