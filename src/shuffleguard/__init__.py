"""shuffleguard: a shuffle-model DP protocol simulator with
poisoning-attack defenses and an experiment harness."""

from .defense import (
    TreePlan,
    Variant,
    detect,
    make_plan,
    plan_base,
    plan_bsdp,
    plan_hsdp,
    plan_ohsdp,
    plan_susdp,
    tally_all,
)
from .errors import (
    DomainError,
    ParameterError,
    ProtocolError,
    ShapeError,
    ShuffleguardError,
)
from .harness import (
    ExperimentConfig,
    Summary,
    TrialResult,
    run_experiment,
    run_trial,
    sweep,
)
from .noise import dlap_threshold, nb_sample
from .protocols import PrivacyBudget, make_base
from .queries import (
    Dataset,
    Query,
    QueryKind,
    dis_to_range,
    eval_query,
)
from .runtime import Envelope, provision

__version__ = "0.1.0"

__all__ = [
    "TreePlan", "Variant", "detect", "make_plan", "plan_base", "plan_bsdp",
    "plan_hsdp", "plan_ohsdp", "plan_susdp", "tally_all",
    "DomainError", "ParameterError", "ProtocolError", "ShapeError",
    "ShuffleguardError",
    "ExperimentConfig", "Summary", "TrialResult", "run_experiment",
    "run_trial", "sweep",
    "dlap_threshold", "nb_sample",
    "PrivacyBudget", "make_base",
    "Dataset", "Query", "QueryKind", "dis_to_range", "eval_query",
    "Envelope", "provision",
    "__version__",
]
