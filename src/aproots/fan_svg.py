"""Rank-3 fan pictures: spherical cone complex, stereographically projected.

Rendering is the one consumer of floating point in the package; everything
it draws was computed exactly upstream.  Each cluster cone becomes a path
through projected great-circle arcs; root directions are drawn as dots
colored by tau-orbit.
"""

from __future__ import annotations

import math

from .almost_positive import neg_simples
from .coxeter import CoxeterContext
from .errors import RankNot3
from .linalg import cross

_PALETTE = (
    "#c22f2f", "#2f7fc2", "#2fa352", "#c2902f", "#7d2fc2",
    "#2fbfbf", "#c22f8e", "#6c6c2f", "#4a4a4a", "#8a5a2f",
)

_CLIP = 40.0
_SIZE = 720         # the picture's width and height in pixels
_ARC_STEPS = 24     # chords per great-circle arc


def _unit(v):
    norm = math.sqrt(sum(float(x) * float(x) for x in v))
    return tuple(float(x) / norm for x in v)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _slerp(a, b, t):
    cos = max(-1.0, min(1.0, _dot(a, b)))
    angle = math.acos(cos)
    if angle < 1e-12:
        return a
    s = math.sin(angle)
    u = math.sin((1 - t) * angle) / s
    w = math.sin(t * angle) / s
    return _unit(tuple(u * x + w * y for x, y in zip(a, b)))


class Projection:
    """Stereographic chart; the pole direction is sent to infinity."""

    def __init__(self, pole):
        self.pole = _unit(pole)
        # orthonormal basis of the plane orthogonal to the pole
        seed = (1.0, 0.0, 0.0)
        if abs(_dot(seed, self.pole)) > 0.9:
            seed = (0.0, 1.0, 0.0)
        t = _dot(seed, self.pole)
        u1 = _unit(tuple(x - t * p for x, p in zip(seed, self.pole)))
        u2 = cross(self.pole, u1)
        self.basis = (u1, u2)

    def project(self, v):
        """Image of a direction, or None when too close to the pole."""
        q = _unit(v)
        denom = 1.0 - _dot(q, self.pole)
        if denom < 1e-9:
            return None
        x = _dot(q, self.basis[0]) / denom
        y = _dot(q, self.basis[1]) / denom
        if math.hypot(x, y) > _CLIP:
            return None
        return (x, y)


def _arc_points(a, b):
    return [_slerp(a, b, t / _ARC_STEPS) for t in range(_ARC_STEPS + 1)]


def require_rank3(cc: CoxeterContext):
    """Raise RankNot3 unless the context has rank 3, the one rank drawn."""
    if cc.n != 3:
        raise RankNot3(f"fan pictures need rank 3, got {cc.n}")


def render_fan_svg(cc: CoxeterContext, clusters, pole=None):
    """SVG text for the cone fan of the given clusters (rank 3 only)."""
    require_rank3(cc)
    proj = Projection(pole if pole is not None else cc.ctx.delta)
    neg_pi = tuple(sorted(neg_simples(cc)))

    shapes = []
    dots = {}
    for cluster in sorted(tuple(sorted(cl)) for cl in clusters):
        rays = [_unit(r) for r in cluster]
        pts = []
        broken = False
        for i in range(len(rays)):
            for q in _arc_points(rays[i], rays[(i + 1) % len(rays)]):
                p = proj.project(q)
                if p is None:
                    broken = True
                    break
                pts.append(p)
            if broken:
                break
        if broken or len(pts) < 3:
            continue
        is_neg = tuple(sorted(cluster)) == neg_pi
        imaginary = len(cluster) == 2
        shapes.append((pts, cluster, is_neg, imaginary))
        for root in cluster:
            dots.setdefault(root, None)

    orbit_color = {}
    for root in dots:
        kind, rep, _ = cc.orbit_classification(root)
        key = (kind, rep)
        if key not in orbit_color:
            orbit_color[key] = _PALETTE[len(orbit_color) % len(_PALETTE)]
        dots[root] = (proj.project(root), orbit_color[key])

    finite = [abs(c) for pts, *_ in shapes for p in pts for c in p]
    reach = max(finite) if finite else 1.0
    reach = min(reach, 8.0)
    scale = (_SIZE / 2 - 20) / reach
    half = _SIZE / 2

    def to_px(p):
        return (half + scale * p[0], half - scale * p[1])

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}" data-scale="{scale:.6f}" data-half="{half}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    for pts, cluster, is_neg, imaginary in shapes:
        path = " ".join(
            ("M" if i == 0 else "L") + f"{to_px(p)[0]:.2f},{to_px(p)[1]:.2f}"
            for i, p in enumerate(pts)
        ) + " Z"
        fill = "#f3e6c8" if is_neg else ("#d8ecf5" if imaginary else "none")
        ident = ' id="cone-neg-simples"' if is_neg else ""
        roots_attr = ";".join(",".join(str(x) for x in r) for r in cluster)
        lines.append(
            f'<path{ident} d="{path}" fill="{fill}" stroke="#333" '
            f'stroke-width="0.8" data-roots="{roots_attr}"/>'
        )
    for root, (p, color) in sorted(dots.items()):
        if p is None:
            continue
        x, y = to_px(p)
        roots_attr = ",".join(str(v) for v in root)
        lines.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}" '
            f'data-root="{roots_attr}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def project_direction(cc: CoxeterContext, v):
    """Chart coordinates of a direction in the chart with delta at infinity;
    exposed for structural checks."""
    require_rank3(cc)
    return Projection(cc.ctx.delta).project(v)
