"""cwg: exact workbench for {0,1,2}-weighted (green/blue/red) graphs."""

from .core import (
    BLUE,
    CanonicalForm,
    ColoredGraph,
    CwgFormatError,
    GREEN,
    RED,
    SelfCheckError,
    Threshold,
    aes_threshold,
    canonical_form,
    canonicalized,
    degree,
    edge_weight_sum,
    enumerate_graphs,
    even_threshold,
    exceeds_threshold,
    min_degree,
    odd_threshold,
    parse_cwg,
    parse_cwg_family,
    read_cwg,
    to_cwg,
    write_cwg,
)
from .constructions import (
    PartitionedConstruction,
    blow_up,
    gen_bk,
    gen_ehss_blowup,
    gen_even_extremal,
    gen_family,
    gen_gab,
    gen_hk,
    gen_j,
    gen_odd_extremal,
    gen_rk,
    gen_rk_minus,
)
from .embedding import (
    Embedding,
    common_red_neighborhood,
    find_embedding,
    is_free,
    max_blue_clique,
    verify_embedding,
)
from .homomorphism import (
    HomCertificate,
    SearchBudgetExceeded,
    find_hom_general,
    find_hom_rk,
    find_hom_rk_minus,
    verify_certificate,
)
from .analysis import (
    FailureDiagnosis,
    StructureReport,
    build_structure_report,
    decompose,
    extremal_completion,
    find_wicked,
    secure_audit,
)
from .search import (
    SearchReport,
    compute_ex,
    density_report,
    empirical_threshold,
    verify_theorem_even,
    verify_theorem_odd,
)

__version__ = "0.1.0"
