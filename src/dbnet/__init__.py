"""Transactional data-aware nets: modelling, translation, equivalence checking.

The package implements a three-layer net formalism (relational persistence,
query/action data logic, coloured control net), its compilation into a
prioritized coloured net with name creation, and a behavioural equivalence
checker that certifies the compilation on finite state spaces.
"""

from .relational import (
    Action,
    ContractError,
    DataType,
    DomainConstraint,
    ForeignKey,
    Instance,
    PrimaryKey,
    RelationSchema,
    Schema,
    ValidationError,
    Value,
    Variable,
    make_value,
    null_value,
    render_value,
)
from .fo import eval_fo_oracle, constraint_to_fo
from .queries import Conjunct, UcqQuery, eval_ucq, ucq_to_fo
from .freshness import FreshPolicy
from .marking import Marking
from .lts import Lts, format_label, lts_text
from .model import (
    ControlPlace,
    DbNet,
    Snapshot,
    Transition,
    ViewPlace,
    build_lts,
    enabled_bindings,
    fire,
    validate,
)
from .cpn import (
    CpnPlace,
    CpnTransition,
    Emit,
    NuCpn,
    P_HIGH,
    P_LOW,
    P_NORMAL,
    cpn_build_lts,
    cpn_enabled,
    cpn_fire,
    cpn_validate,
)
from .translate import TranslationOutput, translate
from .bisim import (
    BISIMILAR,
    NOT_BISIMILAR,
    WeakBisimResult,
    certify_translation,
    check_weak_bisim,
)
from .mutations import MUTATIONS, apply_mutation
from .dsl import DslError, ModelFile, parse_model, print_model

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BISIMILAR",
    "Conjunct",
    "ContractError",
    "ControlPlace",
    "CpnPlace",
    "CpnTransition",
    "DataType",
    "DbNet",
    "DomainConstraint",
    "DslError",
    "Emit",
    "ForeignKey",
    "FreshPolicy",
    "Instance",
    "Lts",
    "MUTATIONS",
    "Marking",
    "ModelFile",
    "NOT_BISIMILAR",
    "NuCpn",
    "P_HIGH",
    "P_LOW",
    "P_NORMAL",
    "PrimaryKey",
    "RelationSchema",
    "Schema",
    "Snapshot",
    "Transition",
    "TranslationOutput",
    "UcqQuery",
    "ValidationError",
    "Value",
    "Variable",
    "ViewPlace",
    "WeakBisimResult",
    "apply_mutation",
    "build_lts",
    "certify_translation",
    "check_weak_bisim",
    "constraint_to_fo",
    "cpn_build_lts",
    "cpn_enabled",
    "cpn_fire",
    "cpn_validate",
    "enabled_bindings",
    "eval_fo_oracle",
    "eval_ucq",
    "fire",
    "format_label",
    "lts_text",
    "make_value",
    "null_value",
    "parse_model",
    "print_model",
    "render_value",
    "translate",
    "ucq_to_fo",
    "validate",
    "__version__",
]
