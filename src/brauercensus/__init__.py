"""Exact census of F-stable semisimple conjugacy classes of simple
algebraic groups over finite fields, computed through alcove geometry.
"""

from .affine import (
    FundamentalGroup,
    fundamental_group,
    hyperplane_containment,
    invariant_space,
    minuscule_nodes,
    standard_symmetry,
)
from .brauer import (
    SubAlcove,
    enumerate_subalcoves,
    fixed_point,
    theta,
)
from .census import (
    ClassRecord,
    GroupConfig,
    counts,
    d_odd_comparison,
    enumerate_classes,
    make_group_config,
)
from .errors import InvariantViolation, ResourceCapExceeded
from .rootdata import (
    RootDatum,
    TypeLabel,
    build_root_system,
    subdiagram_type,
)

__version__ = "0.1.0"
