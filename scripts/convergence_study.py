"""Manufactured-solution convergence study for the state solver.

The exact state u = u_max (1/2 + A cos(pi x) cos(pi y)) satisfies the Neumann
condition on the rectangle; the absorption that manufactures it is lumped
onto every grid node.  The max-norm error against the exact solution should
shrink at second order as the grid is refined.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import rootopt as ro


def manufactured(grid, f, amplitude):
    """Measure whose exact continuum state is a cosine bump around u_max / 2.

    u_ex = u_max * (1/2 + A cos(pi xh) cos(pi yh)) satisfies the Neumann
    condition exactly; the matching absorption a = (lap u_ex + f(u_ex)) / u_ex
    is positive for small A and is lumped as one atom of mass a tau h^2 per
    node (tau h^2 the node's cell area).  Returns (measure, exact nodal values).
    """
    d = grid.domain
    xs = (grid.xs - d.rect_min[0]) / d.width
    ys = (grid.ys - d.rect_min[1]) / d.height
    bump = (np.cos(np.pi * xs)[None, :] * np.cos(np.pi * ys)[:, None]).ravel()
    u_ex = f.u_max * (0.5 + amplitude * bump)
    lap_u = -f.u_max * amplitude * np.pi ** 2 * (
        1.0 / d.width ** 2 + 1.0 / d.height ** 2) * bump
    a = (lap_u + f(u_ex)) / u_ex
    if a.min() <= 0.0:
        raise SystemExit("amplitude too large: absorption went negative")
    tau = ro.quadrature_weights(grid)
    return ro.DiscreteMeasure.from_arrays(grid.node_coordinates(), a * tau * grid.h ** 2), u_ex


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, nargs="+", default=[65, 129, 257],
                    help="grid sizes (nodes per side)")
    ap.add_argument("--amplitude", type=float, default=0.04)
    args = ap.parse_args()

    f = ro.GrowthFunction()
    errs = []
    print(f"{'nodes':>7} {'h':>12} {'max error':>14} {'order':>7}")
    for n in args.levels:
        grid = ro.Grid(ro.Domain(), n, n)
        mu, u_ex = manufactured(grid, f, args.amplitude)
        u = ro.solve_state(grid, mu, f, tol=1e-11)
        err = float(np.max(np.abs(u.values - u_ex)))
        order = math.log2(errs[-1] / err) if errs else float("nan")
        errs.append(err)
        print(f"{n:>7} {grid.h:>12.6f} {err:>14.6e} {order:>7.3f}")


if __name__ == "__main__":
    main()
