"""The acceptance suite: every check the package promises, runnable as a
library call or through the command line.

Each criterion function returns a list of result rows
{"name": str, "ok": bool, "detail": str}; run_all() executes the chosen
subset and aggregates.  Checks are exact; the only tolerances are the
wall-clock budgets stated per criterion.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from . import compatibility as compat
from .almost_positive import neg_simples
from .cartan import _parse_label, catalog_labels, context_from_label
from .clusters import (
    REAL,
    cones_intersect_in_face,
    delta_pair_test_available,
    enumerate_clusters,
    exchange,
    imaginary_cluster_spans_hyperplane_lattice,
    imaginary_clusters,
    is_cluster,
    is_exchangeable,
    is_pair_exchangeable_with_delta,
    is_real_exchangeable,
    single_root_delta_pair_test,
)
from .coxeter import CoxeterContext
from .expansion import cluster_expansion, in_delta_cone_interior
from .linalg import det, in_simplicial_cone, inverse, mat_vec, primitive_integer_vector, vec
from .oracle_bridge import conjecture_evidence, verify_bijection

RANK2_LABELS = ("A1(1)", "A2(2)")
RANK3_LABELS = (
    "A2(1):k=1", "A2(1):k=2", "C2(1)", "G2(1)", "A4(2)", "D3(2)", "D4(3)",
)
RANK4_LABELS = (
    "A3(1):k=1", "A3(1):k=2", "A3(1):k=3", "B3(1)", "C3(1)",
    "A6(2)", "A5(2)", "D4(2)",
)


def _cc(label: str) -> CoxeterContext:
    ctx, word = context_from_label(label)
    return CoxeterContext(ctx, word)


def _row(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _level_pool(cc, level):
    """All almost-positive members with delta-level at most `level`."""
    from .roots import roots_up_to_level

    pool = []
    for r in roots_up_to_level(cc.ctx, level):
        if cc.phi_c_class(r) is not None:
            pool.append(r)
    return pool


# ---------------------------------------------------------------------------
# criterion 1: the worked example
# ---------------------------------------------------------------------------

def criterion_worked_example():
    cc = _cc("D3(2)")
    value = compat.compatibility_degree(cc, (2, 1, 0), (0, 1, 0))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        compat.compatibility_degree(cc, (2, 1, 0), (0, 1, 0))
        times.append(time.perf_counter() - t0)
    elapsed = sorted(times)[len(times) // 2]
    ok = (value.arrow_to, value.arrow_from, value.degree) == (-1, 1, 1)
    return [
        _row("worked example arrows", ok,
             f"arrows=({value.arrow_to}, {value.arrow_from}) degree={value.degree}"),
        _row("worked example under 1 ms", elapsed < 0.001, f"{elapsed * 1e6:.0f} us"),
    ]


# ---------------------------------------------------------------------------
# criterion 2: finite-orbit simple systems of the standard types
# ---------------------------------------------------------------------------

def _expected_fin_simples(label, n):
    def unit(i):
        return tuple(1 if j == i else 0 for j in range(n))

    def span(lo, hi):
        return tuple(1 if lo <= j <= hi else 0 for j in range(n))

    fam = label[0]
    if label == "A1(1)":
        return set()
    if fam == "A":
        return {unit(j) for j in range(1, n - 1)}
    if fam == "B":
        out = {unit(j) for j in range(1, n - 2)}
        out.add(span(0, n - 2))
        return out
    if fam == "C":
        return {unit(j) for j in range(1, n - 1)}
    if fam == "D":
        out = {unit(j) for j in range(2, n - 2)}
        base = list(span(2, n - 2))
        left = list(base)
        left[0] = 1
        right = list(base)
        right[1] = 1
        out.add(tuple(left))
        out.add(tuple(right))
        return out
    if label == "E6(1)":
        rows = ["0001100", "1100110", "0100100", "0011110", "0101110"]
    elif label == "E7(1)":
        rows = ["00011000", "10001100", "01111110", "00111100", "10011110",
                "10112110"]
    elif label == "E8(1)":
        rows = ["001110000", "100111000", "011111100", "101111110",
                "101211100", "111221110", "112322110"]
    elif label == "F4(1)":
        rows = ["01100", "11110", "02110"]
    elif label == "G2(1)":
        rows = ["110"]
    else:
        raise AssertionError(label)
    return {tuple(int(ch) for ch in row) for row in rows}


def criterion_table_regeneration():
    labels = [label for label in catalog_labels(9) if _parse_label(label)[2] == 1]
    rows = []
    t0 = time.perf_counter()
    for label in labels:
        cc = _cc(label)
        got = set(cc.fin_simples)
        expected = _expected_fin_simples(label, cc.n)
        ok = got == expected
        rows.append(_row(f"finite-orbit simples {label}", ok,
                         "" if ok else f"got {sorted(got)} expected {sorted(expected)}"))
    elapsed = time.perf_counter() - t0
    rows.append(_row("table regeneration under 5 s", elapsed < 5.0, f"{elapsed:.2f} s"))
    return rows


# ---------------------------------------------------------------------------
# criterion 3: degree axioms, exhaustively at level 3
# ---------------------------------------------------------------------------

def _axiom_failures(cc, level):
    pool = _level_pool(cc, level)
    n = cc.n
    failures = []
    delta = cc.ctx.delta
    negs = neg_simples(cc)
    for beta in pool:
        cv = compat.coroot_coordinates(cc, beta)
        for i in range(n):
            if compat.degree(cc, negs[i], beta) != beta[i]:
                failures.append(("base", i, beta))
            if compat.degree(cc, beta, negs[i]) != cv[i]:
                failures.append(("cobase", i, beta))
    tubes = list(cc.tube_roots())
    for a in tubes:
        for b in tubes:
            if compat.degree(cc, a, b) != compat.compat_circ(cc, a, b):
                failures.append(("support formula", a, b))
    for a in tubes + [delta]:
        if compat.degree(cc, delta, a) != 0 or compat.degree(cc, a, delta) != 0:
            failures.append(("delta row", a))
    # the initial and the final letter, each with its moved context and the
    # sigma image of every pool root
    moved = {s: (cc.source_sink_move(s), {a: cc.sigma(s, a) for a in pool})
             for s in (cc.word[0], cc.word[-1])}
    tau = {a: cc.tau(a) for a in pool}
    for a, b in combinations(pool, 2):
        d_ab = compat.degree(cc, a, b)
        d_ba = compat.degree(cc, b, a)
        ta, tb = tau[a], tau[b]
        if compat.degree(cc, ta, tb) != d_ab or compat.degree(cc, tb, ta) != d_ba:
            failures.append(("tau", a, b))
        for s, (other, sigma) in moved.items():
            if compat.degree(other, sigma[a], sigma[b]) != d_ab:
                failures.append(("sigma", s, a, b))
    return failures, len(pool)


def criterion_axioms(labels=None, level=3):
    labels = labels or (RANK2_LABELS + RANK3_LABELS + RANK4_LABELS)
    rows = []
    t0 = time.perf_counter()
    for label in labels:
        cc = _cc(label)
        failures, pool = _axiom_failures(cc, level)
        rows.append(_row(f"degree axioms {label} (pool {pool})", not failures,
                         "" if not failures else str(failures[:3])))
    elapsed = time.perf_counter() - t0
    rows.append(_row("axiom suite under 60 s", elapsed < 60.0, f"{elapsed:.1f} s"))
    return rows


# ---------------------------------------------------------------------------
# criterion 4: unique expansions against brute force
# ---------------------------------------------------------------------------

def _sample_vector(rng, cone, nterms):
    coeffs = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(nterms)]
    gens = rng.sample(list(cone), nterms)
    v = [0] * len(cone[0])
    for c, g in zip(coeffs, gens):
        for i, x in enumerate(g):
            v[i] += c * x
    return vec(v), dict(zip(gens, coeffs))


def criterion_expansion_oracle(labels=None, samples=500, depth=6):
    labels = labels or (RANK2_LABELS + RANK3_LABELS)
    rows = []
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    for label in labels:
        cc = _cc(label)
        real, imag = enumerate_clusters(cc, depth)
        real = sorted(real)
        imag = sorted(imag)
        inverses = {cl: inverse([list(col) for col in zip(*cl)]) for cl in real}
        bad = 0
        for trial in range(samples):
            if trial % 10 == 9:
                cone = imag[rng.randrange(len(imag))]
            else:
                cone = real[rng.randrange(len(real))]
            v, expected = _sample_vector(rng, cone, len(cone))
            terms = cluster_expansion(cc, v)
            if terms != expected:
                bad += 1
                continue
            v = primitive_integer_vector(v)  # same cones as v, in int arithmetic
            containing = sum(all(c >= 0 for c in mat_vec(inverses[cl], v)) for cl in real)
            containing += sum(in_simplicial_cone(cl, v) is not None for cl in imag)
            if containing != 1:
                bad += 1
        rows.append(_row(f"expansion oracle {label} ({samples} samples)", bad == 0,
                         f"{bad} failures"))
    elapsed = time.perf_counter() - t0
    rows.append(_row("expansion oracle under 120 s", elapsed < 120.0, f"{elapsed:.1f} s"))
    return rows


# ---------------------------------------------------------------------------
# criterion 5: cluster structure
# ---------------------------------------------------------------------------

def criterion_cluster_structure(labels=None, depth=5):
    labels = labels or (RANK2_LABELS + RANK3_LABELS)
    rows = []
    for label in labels:
        cc = _cc(label)
        real, imag = enumerate_clusters(cc, depth)
        ok_real = all(len(cl) == cc.n and abs(det([list(r) for r in cl])) == 1 for cl in real)
        ok_imag = all(
            len(cl) == cc.n - 1 and cc.ctx.delta in cl
            and imaginary_cluster_spans_hyperplane_lattice(cc, cl)
            for cl in imag
        )
        rows.append(_row(f"real clusters unimodular {label} ({len(real)})", ok_real))
        rows.append(_row(f"imaginary clusters base the hyperplane lattice {label} "
                         f"({len(imag)})", ok_imag))
    if "D3(2)" in labels:
        rows.append(_row("D3(2) has exactly 2 imaginary clusters",
                         len(imaginary_clusters(_cc("D3(2)"))) == 2))
    return rows


# ---------------------------------------------------------------------------
# criterion 6: exchangeability over the depth-6 graph
# ---------------------------------------------------------------------------

def criterion_exchangeability():
    rows = []
    for label in RANK3_LABELS:
        cc = _cc(label)
        real, _ = enumerate_clusters(cc, 6)
        pair_ok = True
        real_ok = True
        for cl in sorted(real):
            for alpha in cl:
                beta, new = exchange(cc, cl, alpha)
                if compat.degree(cc, alpha, beta) != 1 or compat.degree(cc, beta, alpha) != 1:
                    pair_ok = False
                if is_cluster(cc, new)[0] != REAL:
                    real_ok = False
        # pair-level content of the wall criterion: exchangeable tube pairs
        # with full joint support are exactly the non-real-exchangeable ones
        tube_ok = True
        tubes = list(cc.tube_roots())
        for a, b in combinations(tubes, 2):
            if not is_exchangeable(cc, a, b):
                continue
            full = compat._joint_component_full(cc, a, b)
            realx = is_real_exchangeable(cc, a, b)
            interior = in_delta_cone_interior(cc, vec(x + y for x, y in zip(a, b)))
            if realx == full or realx == interior:
                tube_ok = False
        rows.append(_row(f"exchanged pairs degree 1/1 {label} ({len(real)} clusters)",
                         pair_ok))
        rows.append(_row(f"every facet exchanges to a real cluster {label}", real_ok))
        rows.append(_row(f"tube pair dichotomy {label}", tube_ok))
    return rows


# ---------------------------------------------------------------------------
# criterion 7: the doubled-mark type
# ---------------------------------------------------------------------------

def criterion_doubled_mark_type():
    rows = []
    cc = _cc("A2(2)")
    d = cc.ctx.delta
    rows.append(_row("degree of -α2 against delta is 2",
                     compat.degree(cc, (0, -1), d) == 2,
                     f"got {compat.degree(cc, (0, -1), d)}"))
    rows.append(_row("degree of delta against -α2 is 1 (dual marks)",
                     compat.degree(cc, d, (0, -1)) == 1))
    rows.append(_row("single-root pair test disabled for A2(2)",
                     not delta_pair_test_available(cc)))
    pair = is_pair_exchangeable_with_delta(cc, (-1, 0), (0, -1))
    naive = single_root_delta_pair_test(cc, (0, -1))
    rows.append(_row("pair {-α1,-α2} exchanges with delta despite failing the "
                     "single-root test", pair and not naive))
    cc4 = _cc("A4(2)")
    rows.append(_row("single-root pair test disabled for A4(2)",
                     not delta_pair_test_available(cc4)))
    pair4 = is_pair_exchangeable_with_delta(cc4, (-1, 0, 0), (0, 0, -1))
    rows.append(_row("A4(2) pair {-α1,-α3} exchanges with delta", pair4))
    available = all(delta_pair_test_available(_cc(lbl))
                    for lbl in ("A1(1)", "D3(2)", "G2(1)", "C2(1)", "D4(3)"))
    rows.append(_row("single-root pair test enabled elsewhere", available))
    return rows


# ---------------------------------------------------------------------------
# criterion 8: oracle bridge
# ---------------------------------------------------------------------------

def criterion_oracle_bridge(labels=None, depth=8):
    labels = labels or (RANK2_LABELS + RANK3_LABELS)
    rows = []
    t0 = time.perf_counter()
    for label in labels:
        cc = _cc(label)
        report = verify_bijection(cc, depth)
        rows.append(_row(
            f"oracle bridge {label} ({report['seeds']} seeds, depth {depth})",
            report["ok"],
            "" if report["ok"] else str(report["failures"][:3]),
        ))
    elapsed = time.perf_counter() - t0
    rows.append(_row("oracle bridge under 5 min", elapsed < 300.0, f"{elapsed:.1f} s"))
    return rows


# ---------------------------------------------------------------------------
# criterion 9: conjecture evidence
# ---------------------------------------------------------------------------

def criterion_conjecture():
    rows = []
    t0 = time.perf_counter()
    for label in RANK3_LABELS:
        cc = _cc(label)
        report = conjecture_evidence(cc, 4)
        rows.append(_row(
            f"conjecture evidence {label} ({report['comparisons']} comparisons)",
            True,
            f"{len(report['mismatches'])} mismatches"
            + ("" if not report["mismatches"] else " (reportable finding)"),
        ))
        rows.append(_row(f"conjecture match fraction {label}",
                         report["match_fraction"] == 1.0,
                         f"{report['match_fraction']:.3f}"))
    elapsed = time.perf_counter() - t0
    rows.append(_row("conjecture harness under 10 min", elapsed < 600.0, f"{elapsed:.1f} s"))
    return rows


# ---------------------------------------------------------------------------
# criterion 10: fan geometry and the picture
# ---------------------------------------------------------------------------

def criterion_fan_geometry():
    from .fan_svg import project_direction, render_fan_svg

    rows = []
    for label in RANK3_LABELS:
        cc = _cc(label)
        real, imag = enumerate_clusters(cc, 4)
        cones = sorted(real) + sorted(imag)
        bad = 0
        for c1, c2 in combinations(cones, 2):
            if not cones_intersect_in_face(cc, c1, c2):
                bad += 1
        rows.append(_row(f"pairwise face intersections {label} "
                         f"({len(cones)} cones)", bad == 0, f"{bad} bad pairs"))
    cc = _cc("D3(2)")
    real, imag = enumerate_clusters(cc, 6)
    svg = render_fan_svg(cc, sorted(real) + sorted(imag))
    import xml.etree.ElementTree as ET

    try:
        tree = ET.fromstring(svg)
        valid = True
    except ET.ParseError:
        tree = None
        valid = False
    rows.append(_row("fan picture is well-formed XML", valid))
    central_ok = False
    if tree is not None:
        ns = "{http://www.w3.org/2000/svg}"
        target = None
        for path in tree.iter(ns + "path"):
            if path.get("id") == "cone-neg-simples":
                target = path
        if target is not None:
            pts = _path_points(target.get("d"))
            center = project_direction(cc, tuple(-x for x in cc.ctx.delta))
            scale = float(tree.get("data-scale"))
            half = float(tree.get("data-half"))
            px = (half + scale * center[0], half - scale * center[1])
            central_ok = _point_in_polygon(px, pts)
    rows.append(_row("negative-simple cone is the central triangle", central_ok))
    return rows


def _path_points(d_attr):
    pts = []
    for token in d_attr.replace("M", " ").replace("L", " ").replace("Z", " ").split():
        x, y = token.split(",")
        pts.append((float(x), float(y)))
    return pts


def _point_in_polygon(point, polygon):
    x, y = point
    inside = False
    m = len(polygon)
    for i in range(m):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % m]
        if (y1 > y) != (y2 > y):
            xin = (x2 - x1) * (y - y1) / (y2 - y1) + x1
            if x < xin:
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

CRITERIA = {
    "worked-example": criterion_worked_example,
    "table": criterion_table_regeneration,
    "axioms": criterion_axioms,
    "expansion": criterion_expansion_oracle,
    "clusters": criterion_cluster_structure,
    "exchangeability": criterion_exchangeability,
    "doubled-mark": criterion_doubled_mark_type,
    "oracle": criterion_oracle_bridge,
    "conjecture": criterion_conjecture,
    "fan": criterion_fan_geometry,
}


def run_all(names=None):
    rows = []
    for name in names or CRITERIA:
        for row in CRITERIA[name]():
            row["criterion"] = name
            rows.append(row)
    return rows


def run_for_type(label: str):
    """Scoped verification of one catalog type: its finite-orbit simple
    system against the tabulated answer where available, the degree axioms,
    cluster structure, and (rank at most 3) expansions and oracle bridge."""
    rows = []
    cc = _cc(label)
    if _parse_label(label)[2] == 1:
        got = set(cc.fin_simples)
        expected = _expected_fin_simples(label, cc.n)
        ok = got == expected
        listing = ", ".join("+".join(f"a{i + 1}" for i, x in enumerate(r)
                                     for _ in range(x)) for r in sorted(got))
        rows.append(_row(f"finite-orbit simples = {{{listing}}}", ok))
    for row in criterion_axioms([label], level=2):
        rows.append(row)
    rows.extend(criterion_cluster_structure([label], depth=4))
    if cc.n <= 3:
        rows.extend(criterion_expansion_oracle([label], samples=100, depth=5))
        rows.extend(criterion_oracle_bridge([label], depth=6))
    return rows
