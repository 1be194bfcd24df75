"""Acceptance suite: one check per shipped criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Everything here is exact rational equality; there are no
tolerances to tune.
"""

import json
import math
from fractions import Fraction as F

from finstoch import (
    Multiset,
    accs_kernel,
    acc_kernel,
    coproduct_finset,
    copy_kernel,
    dd_kernel,
    flrn_kernel,
    arr_kernel,
    del_kernel,
    hypergeometric_kernel,
    identity_kernel,
    is_deterministic,
    kernel_compose,
    kernel_equal,
    ksum_kernel,
    lsplit_inv_kernel,
    lsplit_kernel,
    make_dist,
    make_finset,
    msplit_inv_kernel,
    msplit_kernel,
    msplit_space,
    msum_kernel,
    mu_kernel,
    multichoose,
    multinomial_kernel,
    multiset_space,
    perm_kernel,
    permutation_kernel,
    power_finset,
    state_kernel,
    uniform_state,
)
from finstoch.core import Dist, Kernel, Permutation, unchecked_weights
from finstoch.cli import main
from finstoch.laws import GridSpec, run_laws
from finstoch import draws, multisets


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def test_criterion_1_law_suite(capsys):
    code = main(["laws", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    with capsys.disabled():
        verdict(
            1,
            "full law suite passes on the default grid",
            code == 0
            and payload["total_failures"] == 0
            and len(payload["laws"]) >= 40
            and payload["seconds"] <= 120.0,
            f"{len(payload['laws'])} laws, {payload['total_instances']} instances, "
            f"{payload['total_failures']} failures, {payload['seconds']:.1f}s",
        )


def test_criterion_2_multichoose_counts(capsys):
    ok = True
    for n in range(6):
        base = make_finset([f"c{i}" for i in range(n)])
        for K in range(7):
            ok = ok and len(multiset_space(base, K)) == multichoose(n, K)
            if n:
                ok = ok and multichoose(n, K) == math.comb(n + K - 1, K)
    with capsys.disabled():
        verdict(2, "multiset space sizes match multichoose for n <= 5, K <= 6", ok)


def test_criterion_3_multinomial_fixture(capsys):
    HT = make_finset(["h", "t"])
    fair = state_kernel(make_dist(HT, {"h": F(1, 2), "t": F(1, 2)}))
    row = multinomial_kernel(fair, 3).rows[0]
    expected = {
        Multiset(HT, (3, 0)): F(1, 8),
        Multiset(HT, (2, 1)): F(3, 8),
        Multiset(HT, (1, 2)): F(3, 8),
        Multiset(HT, (0, 3)): F(1, 8),
    }
    fixture_ok = row.as_dict == expected
    report = run_laws(selection=["Def8.1.mn_closed"])
    with capsys.disabled():
        verdict(
            3,
            "fair-coin multinomial fixture and closed-form agreement",
            fixture_ok and report.total_failures == 0 and report.total_instances > 0,
            f"{report.total_instances} closed-form instances",
        )


def test_criterion_4_hypergeometric_fixture(capsys):
    AB = make_finset(["a", "b"])
    row = hypergeometric_kernel(AB, 3, 2).row(Multiset(AB, (2, 1)))
    fixture_ok = row.as_dict == {
        Multiset(AB, (2, 0)): F(1, 3),
        Multiset(AB, (1, 1)): F(2, 3),
    }
    report = run_laws(selection=["Def8.1.hg_closed"])
    with capsys.disabled():
        verdict(
            4,
            "urn fixture and closed-form/draw-chain agreement for L <= 5",
            fixture_ok and report.total_failures == 0 and report.total_instances > 0,
            f"{report.total_instances} agreement instances",
        )


def test_criterion_5_split_round_trip(capsys):
    ok = True
    for nx in (1, 2):
        for ny in (1, 2):
            X = make_finset([f"x{i}" for i in range(nx)])
            Y = make_finset([f"y{i}" for i in range(ny)])
            XY = coproduct_finset((X, Y))
            for K in range(4):
                fwd, back = msplit_kernel(X, Y, K), msplit_inv_kernel(X, Y, K)
                ok = ok and kernel_equal(
                    kernel_compose(back, fwd), identity_kernel(multiset_space(XY, K))
                )
                ok = ok and kernel_equal(
                    kernel_compose(fwd, back), identity_kernel(msplit_space(X, Y, K))
                )
                ok = ok and kernel_equal(
                    kernel_compose(fwd, acc_kernel(XY, K)),
                    kernel_compose(accs_kernel(X, Y, K), lsplit_kernel(X, Y, K)),
                )
                ls, li = lsplit_kernel(X, Y, K), lsplit_inv_kernel(X, Y, K)
                dom = power_finset(XY, K)
                ok = ok and len(dom) == (nx + ny) ** K
                ok = ok and kernel_equal(kernel_compose(li, ls), identity_kernel(dom))
                ok = ok and kernel_equal(
                    kernel_compose(ls, li), identity_kernel(ls.codomain)
                )
    with capsys.disabled():
        verdict(5, "msplit/lsplit bijections and defining triangle for |X|,|Y| <= 2, K <= 3", ok)


def _perturbed_at(kernel: Kernel, row: int, entry: int, delta: F) -> Kernel | None:
    """Shift one existing weight; None when the kernel has no such position."""
    if row >= len(kernel.rows) or entry >= len(kernel.rows[row].items):
        return None
    with unchecked_weights():
        rows = list(kernel.rows)
        items = dict(rows[row].items)
        label = rows[row].items[entry][0]
        items[label] += delta
        rows[row] = Dist(kernel.codomain, tuple(items.items()))
        return Kernel(kernel.domain, kernel.codomain, tuple(rows))


SMALL = GridSpec(x_sizes=(1, 2), y_sizes=(1, 2), k_values=(0, 1, 2), number_sizes=(1, 2))


def _mutation_caught(monkeypatch, module, op_name, laws, row, entry) -> bool:
    real = getattr(module, op_name)

    def corrupted(*args):
        kernel = real(*args)
        mutant = _perturbed_at(kernel, row, entry, F(1, 100))
        return kernel if mutant is None else mutant

    with monkeypatch.context() as patch:
        patch.setattr(module, op_name, corrupted)
        with unchecked_weights():
            report = run_laws(SMALL, selection=laws)
    return report.total_failures > 0


def test_criterion_6_mutation_sensitivity(capsys, monkeypatch):
    AB = make_finset(["a", "b"])
    checks = 0
    ok = True
    # every weight position of DD on M[3]({a,b})
    dd_laws = ["Eq3.dd_square", "Prop6.2.flrn_dd", "Prop6.2.arr_dd"]
    for row in range(len(dd_kernel(AB, 2).rows)):
        for entry in range(len(dd_kernel(AB, 2).rows[row].items)):
            ok = ok and _mutation_caught(monkeypatch, multisets, "dd_kernel", dd_laws, row, entry)
            checks += 1
    # every weight position of arr on M[2]({a,b})
    arr_laws = ["Lemma5.4.acc_arr", "Def5.3.arr_mediates"]
    for row in range(len(arr_kernel(AB, 2).rows)):
        for entry in range(len(arr_kernel(AB, 2).rows[row].items)):
            ok = ok and _mutation_caught(monkeypatch, multisets, "arr_kernel", arr_laws, row, entry)
            checks += 1
    # every weight position of the fair-coin multinomial at K = 2
    mn_laws = ["Thm8.2.flrn", "Thm8.2.arr"]
    for entry in range(3):
        ok = ok and _mutation_caught(monkeypatch, draws, "multinomial_kernel", mn_laws, 0, entry)
        checks += 1
    with capsys.disabled():
        verdict(6, "single-weight perturbations of DD, arr, mn all break a law", ok, f"{checks} mutants")


def test_redirected_acc_row_is_caught(monkeypatch):
    # acc . sigma reads the rows of acc that the permutation selects, so a
    # redirected row of a tuple-row acc must still break the acc laws
    AB = make_finset(["a", "b"])
    real = multisets.acc_kernel
    acc = real(AB, 2)
    rows = list(acc.rows)
    rows[1] = Dist(acc.codomain, ((Multiset(AB, (2, 0)), F(1)),))  # (a, b) |-> 2|a|
    mutant = Kernel(acc.domain, acc.codomain, tuple(rows))
    assert not kernel_equal(mutant, acc)
    acc_laws = ["Lemma3.2.acc_perm", "Lemma5.1.acc_perm", "Def5.3.arr_mediates", "Lemma5.4.acc_arr"]
    monkeypatch.setattr(multisets, "acc_kernel", lambda X, K: mutant if (X, K) == (AB, 2) else real(X, K))
    with unchecked_weights():
        report = run_laws(SMALL, selection=acc_laws)
    failed = {r.law_id for r in report.results if r.failure_count}
    assert "Lemma3.2.acc_perm" in failed


def test_criterion_7_determinism_classification(capsys):
    AB = make_finset(["a", "b"])
    ABC = make_finset(["a", "b", "c"])
    deterministic = [
        acc_kernel(AB, 3),
        permutation_kernel(AB, Permutation((1, 2, 0))),
        copy_kernel(ABC, 2),
        msum_kernel(AB, 1, 2),
        mu_kernel(AB, 2, 2),
        ksum_kernel(AB, 2, 1),
        msplit_kernel(make_finset(["x"]), make_finset(["y"]), 2),
    ]
    nondeterministic = [
        state_kernel(uniform_state(2)),
        state_kernel(uniform_state(3)),
        perm_kernel(AB, 2),
        arr_kernel(AB, 2),
        flrn_kernel(AB, 2),
        del_kernel(AB, 1),
        dd_kernel(AB, 1),
    ]
    ok = all(is_deterministic(k) for k in deterministic) and not any(
        is_deterministic(k) for k in nondeterministic
    )
    with capsys.disabled():
        verdict(7, "determinism classification of the named kernels", ok)
