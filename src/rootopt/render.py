"""Static SVG rendering of irrigation plans.

Pure string emitter, no plotting dependency.  Edge stroke widths are
proportional to flux**alpha, so trunk sharing is visible at a glance.
Output is deterministic: fixed float formatting, no timestamps.
"""

from __future__ import annotations

import numpy as np

from .core import DiscreteMeasure, Domain
from .irrigation import ROOT, TERMINAL, IrrigationTree, compute_fluxes

__all__ = ["render_tree_svg", "save_svg"]

_EDGE_COLOR = "#2b6cb0"
_ATOM_COLOR = "#c05621"
_ROOT_COLOR = "#1a202c"
_DOMAIN_COLOR = "#a0aec0"


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def render_tree_svg(tree: IrrigationTree, mu: DiscreteMeasure, alpha: float,
                    domain: Domain | None = None, size: int = 640) -> str:
    flux = compute_fluxes(tree, mu)
    pts = [tree.positions]
    if domain is not None:
        pts.append(np.array([domain.rect_min, domain.rect_max]))
    allpts = np.vstack(pts)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = 0.06 * span
    lo = lo - pad
    hi = hi + pad
    w = hi[0] - lo[0]
    h = hi[1] - lo[1]
    scale = size / max(w, h)
    width = w * scale
    height = h * scale

    def sx(x: float) -> str:
        return _fmt((x - lo[0]) * scale)

    def sy(y: float) -> str:
        # flip: SVG y grows downward
        return _fmt((hi[1] - y) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]
    if domain is not None:
        parts.append(
            f'<rect x="{sx(domain.rect_min[0])}" y="{sy(domain.rect_max[1])}" '
            f'width="{_fmt(domain.width * scale)}" height="{_fmt(domain.height * scale)}" '
            f'fill="none" stroke="{_DOMAIN_COLOR}" stroke-width="1"/>'
        )
    powers = np.power(np.maximum(flux.values, 0.0), alpha)
    top = float(powers[1:].max()) if tree.n_nodes > 1 else 1.0
    stroke_scale = 4.5 / top if top > 0 else 0.0
    for p, q in tree.edges():
        sw = powers[q] * stroke_scale
        parts.append(
            f'<line x1="{sx(tree.positions[p, 0])}" y1="{sy(tree.positions[p, 1])}" '
            f'x2="{sx(tree.positions[q, 0])}" y2="{sy(tree.positions[q, 1])}" '
            f'stroke="{_EDGE_COLOR}" stroke-width="{_fmt(sw)}" stroke-linecap="round"/>'
        )
    masses = mu.masses()
    top_mass = float(masses.max()) if len(masses) else 1.0
    for i in range(tree.n_nodes):
        x, y = tree.positions[i]
        if tree.kinds[i] == ROOT:
            parts.append(
                f'<rect x="{_fmt(float(sx(x)) - 4)}" y="{_fmt(float(sy(y)) - 4)}" '
                f'width="8" height="8" fill="{_ROOT_COLOR}"/>'
            )
        elif tree.kinds[i] == TERMINAL:
            m = masses[tree.atom_index[i]]
            r = 1.5 + 3.0 * np.sqrt(m / top_mass) if top_mass > 0 else 1.5
            parts.append(
                f'<circle cx="{sx(x)}" cy="{sy(y)}" r="{_fmt(r)}" '
                f'fill="{_ATOM_COLOR}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_svg(path, svg_text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg_text)
