"""sosfield: exact certificates for sums of squares over global fields.

Finds completely split nonreal places of explicit extensions K/E, builds
sums of squares whose valuation parities separate Sum(K^2) from E*K^2, and
ships the supporting rational, dyadic, and ordering oracles.  Every
nontrivial answer is a certificate that re-verifies from scratch.
"""

from .errors import (
    BudgetExhaustedError,
    CheckResult,
    DegenerateInputError,
    InfiniteValuationError,
    PrecisionExhaustedError,
    RepresentationNotFoundError,
    SosfieldError,
    UndecidedError,
    ZeroDivisorError,
)
from .fields import QQ, FqField, rat_is_square, field_sqrt
from .poly import Poly, RatFunc, RatFuncField, discriminant, resultant
from .extension import ExtField, GlobalBase, QuotElem, QuotientRing, field_norm
from .factor import factor_fq, factor_q, is_irreducible_fq, sturm_isolate
from .local import (
    BasePlace,
    ExtPlace,
    ValuationVector,
    ext_valuation,
    hensel_lift_root,
    valuation_vector,
    weak_approx,
)
from .split import (
    SearchBudget,
    SplitPlaceRecord,
    SplitSearchResult,
    analyze_place,
    find_split_places,
    verify_split_place,
)
from .witness import (
    SosExpr,
    WitnessCertificate,
    nonpyth_witness,
    sos_uniformizer,
    verify_certificate,
)
from .ratlocal import (
    DyadicHenselCertificate,
    PythChain,
    SquareClassQ2,
    TwoSquareResult,
    dyadic_five_square_check,
    hensel_criterion,
    hilbert_symbol,
    pyth_chain_reduce,
    q2_is_square,
    q2_square_classes,
    three_square_test,
    two_square_test,
    verify_dyadic_certificate,
    verify_pyth_chain,
)
from .orderings import (
    RealEmbedding,
    SignPatternWitness,
    indefinite_witness,
    real_embeddings,
    sign_at,
    verify_sign_witness,
)
from .certs import (
    deserialize,
    read_certificate,
    serialize,
    write_certificate,
)
from .parsing import (
    ParseError,
    parse_fraction,
    parse_poly,
    parse_rational,
    render_poly,
    render_scalar,
)

__version__ = "0.1.0"
