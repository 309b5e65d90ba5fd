"""pcsemi: simulator and verification lab for planted cliques under a
semi-random adversary, with exact divergence oracles at desk scale."""

__version__ = "0.1.0"

from .perturbed_bernoulli import (  # noqa: F401
    PBSpec,
    DivergenceReport,
    bernoulli_lift,
    chi2_exact,
    kl_bound,
    kl_exact,
    mobius_invert,
    pb_pmf,
    pb_pmf_fourier,
    superset_sum,
)
from .graph_model import (  # noqa: F401
    AdversarySpec,
    AssignmentState,
    Graph,
    GridConfig,
    PlantedInstance,
    conditional_assignment,
    gen_classical,
    gen_coupled,
    gen_null_grid,
    gen_null_lines,
    gen_semirandom,
    hypergeometric_sample,
)
from .recovery import (  # noqa: F401
    CliqueSet,
    RecoveryResult,
    good_cliques,
    jaccard,
    maximal_cliques,
    recover,
    union_bound_probability,
)
from .analysis import (  # noqa: F401
    BoundLedger,
    ColumnLaw,
    chained_kl_bound,
    column_law,
    column_law_lines,
    exact_chain_rhs,
    exact_joint_kl,
    hg_bound,
    hg_expectation,
    jaccard_experiment,
    kl_local_bound_grid,
    kl_local_bound_lines,
    tv_from_kl,
)
