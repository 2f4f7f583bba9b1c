"""Rank-3 fan pictures."""

import xml.etree.ElementTree as ET

import pytest

from aproots.clusters import enumerate_clusters
from aproots.errors import RankNot3
from aproots.fan_svg import Projection, project_direction, render_fan_svg

from strategies import cc_for


def test_rank_guard():
    cc = cc_for("A1(1)")
    with pytest.raises(RankNot3):
        render_fan_svg(cc, [])


def test_empty_cluster_set_is_valid_svg():
    cc = cc_for("D3(2)")
    svg = render_fan_svg(cc, [])
    tree = ET.fromstring(svg)
    assert tree.tag.endswith("svg")


def test_pole_semantics():
    cc = cc_for("D3(2)")
    delta = cc.ctx.delta
    # the pole direction is sent to infinity; by default that is delta
    assert project_direction(cc, delta) is None
    opposite = tuple(-x for x in delta)
    center = project_direction(cc, opposite)
    assert max(abs(x) for x in center) < 1e-12
    # flipping the pole swaps the roles
    flipped = Projection(opposite).project(delta)
    assert max(abs(x) for x in flipped) < 1e-12
    assert Projection(opposite).project(opposite) is None


def test_full_picture_structure():
    cc = cc_for("D3(2)")
    real, imag = enumerate_clusters(cc, 4)
    svg = render_fan_svg(cc, sorted(real) + sorted(imag))
    tree = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    paths = list(tree.iter(ns + "path"))
    assert len(paths) >= len(real) // 2
    assert any(p.get("id") == "cone-neg-simples" for p in paths)
    circles = list(tree.iter(ns + "circle"))
    assert circles
    colors = {c.get("fill") for c in circles}
    # at least the negative-simple orbits and a tube orbit get distinct colors
    assert len(colors) >= 3
