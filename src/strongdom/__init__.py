"""Exact domination and bondage numbers for strong products of complete
graphs with paths and starlike trees, plus a verification harness that
confirms every closed-form value by two-sided exact search."""

from ._version import __version__
from .bondage import TimeBudgetExceeded, bondage_number
from .domination import domination_number, gamma_value, is_dominating
from .formulas import (
    bondage_complete,
    bondage_km_pn,
    bondage_km_starlike,
    bondage_path,
    gamma_path,
    gamma_starlike,
    starlike_canonical_dominating_set,
)
from .graphs import (
    StarlikeSpec,
    complete_graph,
    path_graph,
    remove_edges,
    render_graph_text,
    starlike_tree,
    strong_product,
)
from .harness import (
    InstanceSpec,
    build_instance,
    emit_report,
    km_pn_instances,
    mds_structure_entries,
    starlike_branch_multisets,
    sweep,
    verify_instance,
)

__all__ = [
    "__version__",
    "InstanceSpec",
    "StarlikeSpec",
    "TimeBudgetExceeded",
    "bondage_complete",
    "bondage_km_pn",
    "bondage_km_starlike",
    "bondage_number",
    "bondage_path",
    "build_instance",
    "complete_graph",
    "domination_number",
    "emit_report",
    "gamma_path",
    "gamma_starlike",
    "gamma_value",
    "is_dominating",
    "km_pn_instances",
    "mds_structure_entries",
    "path_graph",
    "remove_edges",
    "render_graph_text",
    "starlike_branch_multisets",
    "starlike_canonical_dominating_set",
    "starlike_tree",
    "strong_product",
    "sweep",
    "verify_instance",
]
