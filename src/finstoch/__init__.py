"""Exact finite-probability kernels, fixed-size multisets, and urn distributions.

Everything is computed over arbitrary-precision rationals, so the
commuting-diagram checks in :mod:`finstoch.laws` are exact equalities,
not approximations.
"""

from .core import (
    CarrierTooLarge,
    Dist,
    FinSet,
    Kernel,
    Permutation,
    Tagged,
    carrier_limit,
    constant_kernel,
    convex_sum,
    copy_kernel,
    coprojection_kernel,
    coproduct_finset,
    cotuple,
    dirac,
    discard_kernel,
    fractional_series,
    identity_kernel,
    is_deterministic,
    index_map_kernel,
    kernel_compose,
    kernel_compose_all,
    kernel_equal,
    kernel_from_function,
    kernel_power,
    kernel_tensor,
    make_dist,
    make_finset,
    number_finset,
    permutation_kernel,
    power_finset,
    projection_kernel,
    reindex_kernel,
    series_bullet,
    state_kernel,
    swap_kernel,
    tensor_finset,
    uniform_state,
    unit_finset,
)
from .multisets import (
    Multiset,
    acc_kernel,
    acc_of_seq,
    arr_kernel,
    dd_kernel,
    del_kernel,
    epsilon_kernel,
    flrn_kernel,
    mset_map,
    multichoose,
    multiset_space,
    perm_kernel,
    section_kernel,
)
from .algebra import concat_iso, ksum_kernel, msum, msum_kernel, mu_kernel, mzip_kernel, stack_iso, zip_iso
from .draws import (
    hypergeometric_chain_kernel,
    hypergeometric_kernel,
    multinomial_kernel,
    multinomial_pmf_kernel,
)
from .split import (
    accs_kernel,
    lsplit_inv_kernel,
    lsplit_kernel,
    msplit_inv_kernel,
    msplit_kernel,
    msplit_space,
)

__version__ = "0.1.0"
