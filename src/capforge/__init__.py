"""capforge: graph constructions whose strong-power independence series jumps,
with certified solvers, series reports, and an experiment CLI."""

from types import ModuleType as _ModuleType

from .analysis import (
    BoundsRecord,
    ClassProfile,
    SeriesEntry,
    SeriesReport,
    alpha_bracket,
    alpha_threshold,
    class_index,
    edge_probability,
    edge_probability_floor,
    filter_representatives,
    first_moment_bound,
    independence_series,
    jump_target,
    pair_profile,
    purge_full_classes,
    theoretical_bounds,
)
from .constructions import (
    ConstructedGraph,
    EdgeClass,
    JumpParams,
    MultiJumpSpec,
    certificate_for,
    certificate_size_for,
    check_certificate,
    equivalence_classes,
    expected_class_count,
    explicit_power_set,
    multi_jump_product,
    sample_jump_graph,
    sample_simple_jump_graph,
)
from .graphs import (
    DEFAULT_CAP,
    CapExceeded,
    Graph,
    PowerGraphView,
    complete_graph,
    cycle_graph,
    empty_graph,
    index_to_tuple,
    is_independent,
    make_graph,
    power_view,
    strong_power,
    strong_product,
    tuple_to_index,
)
from .io import GraphFormatError, read_graph, read_metadata, write_graph
from .solver import (
    MISResult,
    SolverBudget,
    available_cpus,
    brute_force_mis,
    clique_cover_upper_bound,
    local_search_lower_bound,
    max_independent_set,
    mitm_mis,
)

__version__ = "0.1.0"

# every public name imported above; the submodules stay out, so that a star
# import does not bind ``io`` over the standard library's
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
