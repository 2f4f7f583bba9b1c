"""Exact-arithmetic almost-positive-roots model for affine cluster fans.

The package builds, for an affine Cartan matrix and a Coxeter element, the
almost-positive root set with its compatibility degree, enumerates clusters
and the exchange graph, computes unique cluster expansions and the cone fan
they define, and cross-checks everything against a coefficient-free
seed-mutation oracle through denominator vectors, g-vectors and the
piecewise-linear weight map.  All arithmetic is exact rational.
"""

from .cartan import (
    AffineContext,
    CartanMatrix,
    Kind,
    catalog,
    catalog_labels,
    classify,
    context_from_label,
    dual,
    validate_cartan,
)
from .coxeter import CoxeterContext, source_sink_counts
from .compatibility import compat_arrows, compatibility_degree, is_compatible
from .expansion import cluster_expansion, in_delta_cone, in_delta_cone_interior
from .clusters import (
    enumerate_clusters,
    exchange,
    is_cluster,
    is_exchangeable,
    is_real_exchangeable,
    nu,
    nu_inverse,
)
from .mutation import Seed, exchange_matrix_from_cartan, matrix_mutation, seed_bfs

__all__ = [
    "AffineContext",
    "CartanMatrix",
    "CoxeterContext",
    "Kind",
    "Seed",
    "catalog",
    "catalog_labels",
    "classify",
    "cluster_expansion",
    "compat_arrows",
    "compatibility_degree",
    "context_from_label",
    "dual",
    "enumerate_clusters",
    "exchange",
    "exchange_matrix_from_cartan",
    "in_delta_cone",
    "in_delta_cone_interior",
    "is_cluster",
    "is_compatible",
    "is_exchangeable",
    "is_real_exchangeable",
    "matrix_mutation",
    "nu",
    "nu_inverse",
    "seed_bfs",
    "source_sink_counts",
    "validate_cartan",
]

__version__ = "0.1.0"
