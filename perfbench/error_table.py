"""Write expansion_error.json, the reference of the analytic accuracy check.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/error_table.py

For each model of the analytic workloads (Gumbel phi 1 and 10, alpha 0.8
and 2) it writes ``|log(x / exact)|`` for every number ``x`` that
``tailprob_expansion_ev``, ``var_expansion_ev`` and
``var_from_tailprob_inversion`` answer (values, candidate refinements,
inverted VaR), at the edges of the grid cells in which the seed jitters the
levels. A run fails a query whose log error is more than its
cell's tolerance (``workloads.analytic_reference``). Before writing, it
checks that seven points inside every cell are within their cell's
tolerance, so a tolerance read from the edges holds inside the cell.

The file in the repository was written at the commit that added the
benchmark. Rewriting it resets what the check accepts; a change that only
claims a speed-up may not do that.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import tailsum  # noqa: E402
import workloads as W  # noqa: E402

GRIDS = {
    "tail": (*W.ANALYTIC_LOG10_SF, W.ANALYTIC_TAIL_POINTS),
    "var": (*W.ANALYTIC_LOG10_1MQ, W.ANALYTIC_VAR_POINTS),
    "inversion": (*W.ANALYTIC_LOG10_1MQ, W.ANALYTIC_VAR_POINTS),
}


def _errors_at(oracles, md: W.AnalyticModel, kind: str, log10_level: float) -> dict:
    if kind == "tail":
        level = W._threshold(md.alpha, 10.0**log10_level)
    else:
        level = 1.0 - 10.0**log10_level
    call, answer = W.QUERIES[kind]
    return W.log_errors(oracles, md, kind, level, answer(call(md, level)), {})


def main() -> int:
    oracles = W.import_oracles()
    table = {}
    for phi in (1.0, 10.0):
        for md in W.analytic_models(phi, ()):
            for kind, (lo, hi, points) in GRIDS.items():
                edges = W.cell_edges(lo, hi, points)
                at_edges = [_errors_at(oracles, md, kind, e) for e in edges]
                errs = {name: [e[name] for e in at_edges] for name in at_edges[0]}
                tolerances = {name: W.error_tolerances(v) for name, v in errs.items()}
                for cell, (left, right) in enumerate(zip(edges[:-1], edges[1:])):
                    for inner in np.linspace(left, right, 9)[1:-1]:
                        for name, err in _errors_at(oracles, md, kind, inner).items():
                            tol = tolerances[name][cell]
                            if err > tol:
                                print(f"{W.error_key(md, kind)} {name}: error {err:.3e} at "
                                      f"10^{inner:.3f} is above the cell's tolerance {tol:.3e}",
                                      file=sys.stderr)
                                return 1
                table[W.error_key(md, kind)] = errs
                for name, v in errs.items():
                    print(f"{W.error_key(md, kind)} {name}: {min(v):.3e} .. {max(v):.3e}")
    W.ERROR_TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
