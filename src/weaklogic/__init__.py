"""Simulation toolkit for pre- and postselected quantum systems.

Computes projective (strong) measurement statistics, postselected
conditional probabilities, weak values, and finite-strength von Neumann
pointer readouts for small labelled Hilbert spaces, and audits whether
weak values of projector sums and products admit a consistent OR/AND
reading. Ships a catalog of standard scenarios plus a JSON format and CLI
for custom ones.
"""

from .audit import (
    AuditEntry,
    AuditReport,
    AuditVerdict,
    ProductCase,
    SumCase,
    audit_all,
    classify_product,
    classify_sum,
)
from .errors import (
    AblUndefinedError,
    AuditPreconditionError,
    ConsistencyError,
    ExpressionError,
    MeterGridError,
    NearPoleWarning,
    NotAProjectorError,
    ParseError,
    PhysicsError,
    PostselectionLostError,
    ScenarioError,
    SweepDivergenceError,
    UnboundNameError,
    ZeroProbabilityError,
)
from .expr import evaluate, evaluate_text, parse, unparse
from .linalg import (
    STRUCT_TOL,
    SCALAR_TOL,
    State,
    add,
    apply,
    basis_projector,
    commutes,
    compose,
    identity,
    inner,
    is_projector,
    orthogonal,
)
from .meter import (
    MeterConfig,
    PointerStats,
    measure_pointer,
    sequential_disturbance,
    weak_limit_estimate,
)
from .scenario import (
    CATALOG_NAMES,
    Scenario,
    build_scenario,
    catalog,
    default_audit_pairs,
    effective_bra,
    load_scenario,
    parse_audit_pairs,
    scenario_document,
)
from .strong import CollapseOutcome, abl_prob, bayes_check, born_prob, collapse, cond_prob_post
from .weak import WeakValue, weak_value, weak_value_expr

__version__ = "0.1.0"
