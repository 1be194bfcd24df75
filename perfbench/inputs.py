"""The pinned and seeded inputs of the three workloads, as plain data.

Nothing here imports finstoch: the law-grid values are written out
rather than read from ``finstoch.laws.GridSpec()``, so that a later
change to the default grid makes a new workload instead of silently
altering this one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# law-grid ------------------------------------------------------------------------

# The default GridSpec with |X| <= 2 and K <= 3.  The full default grid
# takes over a minute serially, longer than one benchmark run may last;
# this sub-grid keeps all 92 laws, the four kernel kinds and the same
# most expensive laws, in about a sixteenth of the time.
LAW_GRID = {
    "x_sizes": (1, 2),
    "y_sizes": (1, 2),
    "k_values": (0, 1, 2, 3),
    "n_values": (1, 2),
    "number_sizes": (1, 2, 3, 4),
    "kl_cap": 6,
    "k_plus_l_cap": 5,
    "kln_cap": 8,
    "carrier_limit": 20000,
}

LAW_IDS = (
    'Comonoid.proj_copy', 'Comonoid.copy_swap', 'Comonoid.copy_assoc', 'Def4.1.perm_fixed',
    'Def4.1.tensor_mult', 'Sec4.bullet_comm', 'Lemma4.2.comp_right', 'Lemma4.2.comp_left',
    'Lemma4.2.tensor_right', 'Lemma4.2.tensor_left', 'Lemma4.2.constant', 'Lemma4.2.double',
    'Chk.fractional_series', 'Chk.convex_composite', 'Chk.det_char', 'Chk.det_coproj',
    'Chk.det_cotuple', 'Lemma3.2.acc_perm', 'Lemma3.2.acc_natural', 'Eq1.perm_sum',
    'Eq2.eps_sum', 'Lemma5.1.perm_natural', 'Lemma5.1.perm_copy', 'Lemma5.1.acc_perm',
    'Lemma5.2.eps_natural', 'Lemma5.2.eps_one', 'Lemma5.2.eps_copy', 'Def5.3.eps_invariant',
    'Def5.3.perm_invariant', 'Def5.3.arr_mediates', 'Def5.3.flrn_mediates',
    'Lemma5.4.flrn_natural', 'Lemma5.4.arr_natural', 'Lemma5.4.acc_arr', 'Lemma5.4.perm_arr',
    'Lemma5.5.zero_final', 'Lemma5.5.one_iso', 'Lemma5.5.unit_final', 'Lemma5.5.empty_initial',
    'Lemma6.1.del_perm', 'Lemma6.1.eps_del', 'Lemma6.1.del_copy', 'Lemma6.1.del_perm_proj',
    'Lemma6.1.del_arr_proj', 'Sec6.del_sum', 'Eq3.dd_square', 'Prop6.2.flrn_dd',
    'Prop6.2.arr_dd', 'Sec7.concat_assoc', 'Def7.1.sum_natural', 'Lemma7.2.assoc',
    'Lemma7.2.comm', 'Lemma7.2.unit', 'Thm7.3.acc_hom', 'Thm7.3.ksum_square',
    'Thm7.3.mu_square', 'Thm7.3.ksum_natural', 'Thm7.3.mu_natural', 'Thm7.3.unit_left',
    'Thm7.3.unit_right', 'Thm7.3.assoc', 'Prop7.5.natural', 'Prop7.5.arr_zip', 'Prop7.5.assoc',
    'Prop7.5.unit', 'Prop7.5.proj1', 'Prop7.5.proj2', 'Prop7.5.dd', 'Chk.zip_perm',
    'Def8.1.mn_closed', 'Def8.1.hg_closed', 'Thm8.2.arr', 'Thm8.2.flrn', 'Thm8.2.dd',
    'Thm8.2.mu', 'Thm8.2.sum', 'Thm8.2.multizip', 'Thm8.3.mn', 'Thm8.3.flrn', 'Thm8.3.mzip',
    'Eq5.iso_left', 'Eq5.iso_right', 'LemmaA.1.collapse', 'LemmaA.1.perm', 'Eq6.msplit_square',
    'Eq7.msplit_inv', 'Prop5.6.iso_left', 'Prop5.6.iso_right', 'Prop5.6.count',
    'Chk.multichoose_pascal', 'Chk.binomial_blocks', 'Prop5.6.card_shadow',
)

# cli-ladder ----------------------------------------------------------------------

COLOURS = "abcdefgh"


@dataclass(frozen=True)
class Query:
    """One CLI call.  ``urn`` and ``right`` are (colour, count) pairs, ``dist`` (colour, weight)."""

    command: str
    fmt: str
    urn: tuple = ()
    right: tuple = ()
    dist: tuple = ()
    k: int = 0
    left: tuple = ()
    json_urn: bool = False

    def _urn_arg(self, urn: tuple) -> str:
        if self.json_urn:
            colours = ", ".join(f'"{x}"' for x, _ in urn)
            counts = ", ".join(str(c) for _, c in urn)
            return f'{{"colors": [{colours}], "counts": [{counts}]}}'
        return ",".join(f"{x}:{c}" for x, c in urn)

    def argv(self) -> list[str]:
        args = [self.command]
        if self.command == "multinomial":
            args += ["--dist", ",".join(f"{x}:{w.numerator}/{w.denominator}" for x, w in self.dist)]
            args += ["--k", str(self.k)]
        elif self.command == "mzip":
            args += ["--left", self._urn_arg(self.urn), "--right", self._urn_arg(self.right)]
        else:
            args += ["--urn", self._urn_arg(self.urn)]
            if self.command == "hypergeometric":
                args += ["--draws", str(self.k)]
            if self.command == "msplit":
                args += ["--left", ",".join(self.left)]
        return args + ["--format", self.fmt]


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """A uniformly chosen way to write ``total`` as ``parts`` positive counts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _urn(rng: random.Random, colours: str, size: int) -> tuple:
    return tuple(zip(colours, _composition(rng, size, len(colours))))


# Rungs per command, smallest first.  The text and json formats alternate
# up the ladder, and the second rung passes urns in the JSON form.  At the
# bottom a query costs about one interpreter start plus the import; at the
# top building the kernel costs up to about one second.
LADDER = {
    # (colours, draws K, weight denominator)
    "multinomial": ((2, 3, 6), (3, 5, 12), (2, 10, 12), (3, 8, 12)),
    # (colours, urn size, draws)
    "hypergeometric": ((2, 3, 2), (3, 8, 4), (4, 12, 5), (4, 18, 6)),
    # (colours, urn size)
    "dd": ((2, 3), (3, 8), (4, 12), (4, 18)),
    "flrn": ((2, 2), (3, 8), (5, 12), (5, 16)),
    "arr": ((2, 3), (3, 6), (3, 7), (3, 8)),
    # (left colours, right colours, size)
    "mzip": ((2, 2, 2), (2, 2, 4), (2, 2, 5), (3, 2, 5)),
    # (colours, urn size, colours on the left)
    "msplit": ((2, 3, 1), (4, 8, 2), (5, 11, 2), (6, 14, 3)),
}
FORMATS = ("text", "json", "text", "json")


def cli_queries(seed: int) -> list[Query]:
    """The seeded query list of one cli-ladder round: sizes are fixed, counts and weights drawn."""
    rng = random.Random(seed)
    out = []
    for command, rungs in LADDER.items():
        for rung, (fmt, spec) in enumerate(zip(FORMATS, rungs)):
            json_urn = rung == 1
            if command == "multinomial":
                n, K, denom = spec
                dist = tuple((x, Fraction(v, denom)) for x, v in zip(COLOURS, _composition(rng, denom, n)))
                q = Query(command, fmt, dist=dist, k=K)
            elif command == "mzip":
                nx, ny, K = spec
                q = Query(
                    command, fmt, urn=_urn(rng, COLOURS[:nx], K),
                    right=_urn(rng, COLOURS[nx : nx + ny], K), json_urn=json_urn,
                )
            elif command == "msplit":
                n, size, nleft = spec
                left = tuple(sorted(rng.sample(COLOURS[:n], nleft)))
                q = Query(command, fmt, urn=_urn(rng, COLOURS[:n], size), left=left, json_urn=json_urn)
            else:
                n, size = spec[:2]
                k = spec[2] if command == "hypergeometric" else 0
                q = Query(command, fmt, urn=_urn(rng, COLOURS[:n], size), k=k, json_urn=json_urn)
            out.append(q)
    return out


# The warm-up query each cli-ladder set-up runs; its time counts in setup_s, not in the rounds.
WARMUP = Query("flrn", "text", urn=(("a", 1), ("b", 1)))

# kernel-scale --------------------------------------------------------------------

KX = ("x0", "x1", "x2")
KY = ("y0", "y1", "y2")
LEFT2 = ("a", "b")
FOUR = ("a", "b", "c", "d")

# (builder, arguments); "f" stands for the seeded kernel KX -> KY.  Every
# size is one or two steps beyond the law grid (|X| <= 3, K <= 4).
BUILDS = (
    ("multinomial_kernel", ("f", 4)),
    ("multinomial_kernel", ("f", 5)),
    ("mset_map", ("f", 4)),
    ("mset_map", ("f", 5)),
    ("hypergeometric_chain_kernel", (FOUR, 8, 3)),
    ("mzip_kernel", (KX, LEFT2, 5)),
    ("mu_kernel", (KX, 4, 4)),
    ("arr_kernel", (FOUR, 7)),
    ("msplit_kernel", (KX, KY, 8)),
)


def kernel_rows(seed: int) -> dict[str, tuple[tuple[str, Fraction], ...]]:
    """The seeded kernel KX -> KY: every weight positive, numerators 1..9 over their row sum."""
    rng = random.Random(seed)
    rows = {}
    for x in KX:
        nums = [rng.randint(1, 9) for _ in KY]
        rows[x] = tuple((y, Fraction(v, sum(nums))) for y, v in zip(KY, nums))
    return rows
