"""The law registry and its grid runner: contracts, determinism, sensitivity."""

import json
import pathlib
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

from finstoch import laws, multisets
from finstoch.core import Dist, Kernel, unchecked_weights
from finstoch.laws import (
    GridSpec,
    Instance,
    law,
    law_by_id,
    law_registry,
    make_kernel,
    perms_for,
    run_laws,
)

SMALL = GridSpec(x_sizes=(1, 2), y_sizes=(1, 2), k_values=(0, 1, 2), number_sizes=(1, 2))


def _timeless(payload: dict) -> dict:
    """A report payload without its timing fields."""
    payload.pop("seconds")
    for entry in payload["laws"]:
        entry.pop("seconds")
    return payload


def perturb(kernel: Kernel, row_index: int, delta: F) -> Kernel:
    """Shift one weight of one row, bypassing row-sum validation."""
    with unchecked_weights():
        rows = list(kernel.rows)
        target = rows[row_index]
        y = target.carrier.elements[0] if not target.items else target.items[0][0]
        new = dict(target.items)
        new[y] = new.get(y, F(0)) + delta
        rows[row_index] = Dist(kernel.codomain, tuple(new.items()))
        return Kernel(kernel.domain, kernel.codomain, tuple(rows))


class TestRegistry:
    def test_size_and_uniqueness(self):
        reg = law_registry()
        assert len(reg) >= 40
        assert len({law.id for law in reg}) == len(reg)

    def test_lookup_known_ids(self):
        law = law_by_id("Thm8.2.multizip")
        assert "mzip" in law.ref and "mn" in law.ref
        assert law_by_id("Thm8.3.flrn").ref.startswith("Flrn")

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            law_by_id("NoSuchLaw")

    def test_every_law_self_describes(self):
        for law in law_registry():
            assert law.ref
            assert law.dims

    def test_catalogue_doc_in_sync(self):
        doc = pathlib.Path(__file__).resolve().parent.parent / "docs" / "LAWS.md"
        lines = doc.read_text().splitlines()
        rows = []
        for line in lines:
            if not line.startswith("| `"):
                continue
            # cells split on unescaped pipes; an escaped pipe is part of a cell
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            assert len(cells) == 3, line
            ident, statement, dims = cells
            assert ident[0] == ident[-1] == "`" and statement[0] == statement[-1] == "`", line
            rows.append((ident[1:-1], statement[1:-1].replace("\\|", "|"), dims))
        registry = law_registry()
        assert rows == [(law.id, law.ref, ", ".join(law.dims)) for law in registry]
        assert [line for line in lines if line.strip()][-1] == f"{len(registry)} laws total."

    def test_duplicate_id_refused(self):
        before = law_registry()
        with pytest.raises(ValueError):
            law("Eq3.dd_square", "a second DD square", ("X", "K"))(lambda i: None)
        assert law_registry() == before


class TestRunner:
    def test_empty_selection(self):
        report = run_laws(SMALL, selection=[])
        assert report.results == ()
        assert report.total_failures == 0

    def test_unknown_selection(self):
        with pytest.raises(KeyError):
            run_laws(SMALL, selection=["NoSuchLaw"])

    def test_single_law(self):
        report = run_laws(SMALL, selection=["Prop6.2.flrn_dd"])
        assert len(report.results) == 1
        assert report.results[0].instances > 0
        assert report.total_failures == 0

    def test_small_grid_all_pass(self):
        report = run_laws(SMALL)
        assert report.total_failures == 0
        assert report.total_instances == 2353
        assert report.total_skipped == 0

    def test_full_grid_report_is_unchanged(self):
        # the per-law counts of the default grid, timings aside, as committed
        # in full_grid_report.json; a change to the core must leave them alone
        golden = json.loads(pathlib.Path(__file__).with_name("full_grid_report.json").read_text())
        fields = ("law_id", "instances", "passes", "failure_count", "skipped")
        report = run_laws()
        assert [{k: r.to_json()[k] for k in fields} for r in report.results] == golden

    def test_untypeable_generators_are_not_instances(self):
        # acc_natural spans 2*2*3*4 = 48 points; at the 6 where fkind is
        # iso and |X| != |Y| the generator has no type and is not counted
        counts = {"Lemma3.2.acc_natural": 42, "Lemma4.2.comp_right": 56, "Prop7.5.natural": 150}
        report = run_laws(SMALL, selection=list(counts))
        assert {r.law_id: r.instances for r in report.results} == counts
        assert report.total_skipped == 0 and report.total_failures == 0

    def test_deterministic_reports(self):
        a = run_laws(SMALL, selection=["Lemma5.4.acc_arr", "Eq3.dd_square"]).to_json()
        b = run_laws(SMALL, selection=["Lemma5.4.acc_arr", "Eq3.dd_square"]).to_json()
        for payload in (a, b):
            payload.pop("seconds")
            for law in payload["laws"]:
                law.pop("seconds")
        assert a == b

    def test_no_first_failure_when_every_law_passes(self):
        report = run_laws(SMALL, selection=["Eq3.dd_square"])
        assert report.total_failures == 0 and report.first_failure() is None

    def test_unknown_grid_dimension_refused(self):
        with pytest.raises(ValueError, match="unknown grid dimension 'Z'"):
            list(laws.iter_instances(SMALL, ("X", "Z")))

    def test_jobs_other_than_one_refused(self):
        with pytest.raises(ValueError):
            run_laws(SMALL, ["Eq3.dd_square"], jobs=2)
        explicit = _timeless(run_laws(SMALL, ["Eq3.dd_square"], jobs=1).to_json())
        assert explicit == _timeless(run_laws(SMALL, ["Eq3.dd_square"]).to_json())

    def test_runner_loads_no_process_pool(self):
        probe = "import sys, finstoch.laws; print('concurrent.futures' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"

    def test_json_round_trip(self):
        report = run_laws(SMALL, selection=["Eq3.dd_square"])
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["laws"][0]["law_id"] == "Eq3.dd_square"
        assert set(payload["laws"][0]) >= {"law_id", "paper_ref", "instances", "passes", "failures"}

    def test_table_renders(self):
        report = run_laws(SMALL, selection=["Eq3.dd_square"])
        assert "Eq3.dd_square" in report.table()

    def test_carrier_guard_records_skips(self):
        # power(X, 3) has 8 elements, over the limit of 5, so every
        # instance is skipped; as for every law, what is already cached
        # under another ceiling makes no difference
        tight = GridSpec(x_sizes=(2,), y_sizes=(2,), k_values=(3,), carrier_limit=5)
        report = run_laws(tight, selection=["Lemma5.1.acc_perm"])
        assert report.total_skipped > 0
        assert report.total_instances == 0
        assert report.total_failures == 0

    def test_skips_ignore_a_run_at_another_ceiling(self):
        # X^3 has 8 elements, over the ceiling of 5: the four K = 3 points
        # skip, although the run before built their kernels at the default
        sizes = dict(x_sizes=(2,), y_sizes=(2,), k_values=(1, 2, 3))
        run_laws(GridSpec(**sizes), selection=["Def8.1.mn_closed"])
        report = run_laws(GridSpec(**sizes, carrier_limit=5), selection=["Def8.1.mn_closed"])
        assert (report.total_instances, report.total_skipped) == (8, 4)

    def test_skips_a_size_past_the_int_to_str_limit(self):
        # X^14300 with |X| = 2 has a size of 4,305 digits, more than Python prints: the guard still refuses it
        grid = GridSpec(x_sizes=(2,), y_sizes=(1,), k_values=(14300,))
        report = run_laws(grid, selection=["Lemma3.2.acc_natural"])
        assert (report.total_instances, report.total_skipped, report.total_failures) == (0, 3, 0)

    def test_skips_a_length_past_the_int_to_str_limit(self):
        # K has 5,001 digits, more than Python prints: the length guard names it by a power of two and refuses it
        grid = GridSpec(x_sizes=(2,), y_sizes=(1,), k_values=(10**5000,))
        report = run_laws(grid, selection=["Lemma3.2.acc_natural"])
        assert (report.total_instances, report.total_skipped, report.total_failures) == (0, 3, 0)


def _values():
    """One of each value class of the runner, built twice from equal fields."""
    law_ = law_by_id("Eq3.dd_square")
    result = dict(law_id="x", paper_ref="y", instances=2, passes=1, failure_count=1, failures=("K=1",),
                  skipped=0, seconds=0.5)
    return [
        (GridSpec(x_sizes=(1, 2)), GridSpec(x_sizes=(1, 2))),
        (Instance(SMALL, K=2, fkind="generic"), Instance(grid=SMALL, fkind="generic", K=2)),
        (law_, laws.Law(law_.id, law_.ref, law_.dims, law_.build)),
        (laws.LawResult(**result), laws.LawResult(**result)),
        (
            laws.Report(SMALL, (laws.LawResult(**result),), 1.0),
            laws.Report(grid=SMALL, results=(laws.LawResult(**result),), seconds=1.0),
        ),
    ]


class TestValueClasses:
    @pytest.mark.parametrize("index", range(5))
    def test_equal_fields_give_equal_values_and_hashes(self, index):
        a, b = _values()[index]
        assert a is not b and a == b and hash(a) == hash(b)
        changed = a.replace(**{a._fields[-1]: "other"})
        assert changed != a and getattr(changed, a._fields[-1]) == "other"

    @pytest.mark.parametrize("index", range(5))
    def test_fields_cannot_be_assigned(self, index):
        value = _values()[index][0]
        name = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)

    def test_unknown_and_missing_fields_refused(self):
        with pytest.raises(TypeError, match="GridSpec got unknown, repeated or missing fields x_size$"):
            GridSpec(x_size=(1,))
        with pytest.raises(TypeError, match="GridSpec got unknown, repeated or missing fields x_sizes$"):
            GridSpec((1,), x_sizes=(2,))
        with pytest.raises(TypeError, match="Instance got an unknown field among Z"):
            Instance(SMALL, Z=1)
        with pytest.raises(TypeError):
            Instance(K=1)
        with pytest.raises(TypeError, match="Law got unknown, repeated or missing fields build$"):
            laws.Law("id", "ref", ("K",))
        with pytest.raises(TypeError, match="Report got unknown, repeated or missing fields total$"):
            laws.Report(grid=SMALL, results=(), seconds=0.0, total=0)
        with pytest.raises(TypeError, match="Report got unknown, repeated or missing fields seconds, total$"):
            laws.Report(grid=SMALL, results=(), total=0)
        with pytest.raises(TypeError, match="Report takes 3 fields, got 4 positional arguments"):
            laws.Report(SMALL, (), 0.0, None)

    def test_repr_lists_the_fields_in_order(self):
        assert repr(GridSpec(x_sizes=(1,), kl_cap=2)) == (
            "GridSpec(x_sizes=(1,), y_sizes=(1, 2), k_values=(0, 1, 2, 3, 4), n_values=(1, 2), "
            "number_sizes=(1, 2, 3, 4), kl_cap=2, k_plus_l_cap=5, kln_cap=8, carrier_limit=20000)"
        )
        assert repr(Instance(SMALL, K=2)).startswith("Instance(grid=GridSpec(x_sizes=(1, 2), ")
        assert repr(Instance(SMALL, K=2)).endswith(", K=2, L=None, N=None, n=None, m=None, nums=None, fkind=None, "
                                                   "gkind=None, sigma=None, tau=None, rho=None, r=None, s=None)")

    def test_defaults_and_field_order(self):
        assert list(GridSpec().as_dict()) == [
            "x_sizes", "y_sizes", "k_values", "n_values", "number_sizes", "kl_cap", "k_plus_l_cap", "kln_cap",
            "carrier_limit",
        ]
        assert law_by_id("Eq3.dd_square").applies is None
        assert Instance(SMALL).as_dict() == {"grid": SMALL, **dict.fromkeys(Instance._fields[1:])}


class TestGridSpec:
    @pytest.mark.parametrize("name", ["x_sizes", "y_sizes", "number_sizes"])
    def test_sizes_below_one_refused(self, name):
        with pytest.raises(ValueError, match=name):
            GridSpec(**{name: (0, 1)})

    @pytest.mark.parametrize("name, most", [("x_sizes", 4), ("y_sizes", 3)])
    def test_sizes_past_the_atoms_refused(self, name, most):
        with pytest.raises(ValueError, match=name):
            GridSpec(**{name: (most, most + 1)})
        assert getattr(GridSpec(**{name: (most,)}), name) == (most,)

    @pytest.mark.parametrize("name", ["k_values", "n_values"])
    def test_negative_sizes_refused(self, name):
        with pytest.raises(ValueError, match=name):
            GridSpec(**{name: (-1, 1)})
        assert getattr(GridSpec(**{name: (0, 1)}), name) == (0, 1)


class TestGridPermutations:
    def test_size_four_keeps_its_seven(self):
        images = [p.images for p in perms_for(4)]
        assert images == [
            (1, 0, 2, 3), (2, 1, 0, 3), (3, 1, 2, 0), (0, 2, 1, 3),
            (0, 3, 2, 1), (0, 1, 3, 2), (1, 2, 3, 0),
        ]

    def test_transpositions_and_one_cycle_past_four(self):
        perms = perms_for(6)
        assert len(set(perms)) == len(perms) == 15 + 1
        assert all(sum(i != v for i, v in enumerate(p.images)) == 2 for p in perms[:-1])
        assert perms[-1].images == (1, 2, 3, 4, 5, 0)

    def test_rho_past_four(self):
        report = run_laws(GridSpec(number_sizes=(5,)), selection=["Def4.1.perm_fixed"])
        assert [(r.instances, r.passes) for r in report.results] == [(11, 11)]

    def test_sigma_and_tau_at_k_five(self):
        ids = ["Lemma3.2.acc_perm", "Def5.3.eps_invariant", "Lemma5.4.perm_arr", "Chk.zip_perm", "LemmaA.1.perm"]
        report = run_laws(GridSpec(x_sizes=(1, 2), k_values=(5,)), selection=ids)
        assert report.total_instances == 154
        assert report.total_failures == 0 and report.total_skipped == 0


class TestMutationSensitivity:
    def test_corrupted_dd_fails_with_counterexample(self, monkeypatch):
        real = multisets.dd_kernel

        def corrupted(X, K):
            return perturb(real(X, K), 0, F(1, 100))

        monkeypatch.setattr(multisets, "dd_kernel", corrupted)
        with unchecked_weights():
            report = run_laws(SMALL, selection=["Prop6.2.flrn_dd"])
        assert report.total_failures > 0
        law_id, instance = report.first_failure()
        assert law_id == "Prop6.2.flrn_dd"
        assert "X=" in instance

    def test_corrupted_arr_fails(self, monkeypatch):
        real = multisets.arr_kernel

        def corrupted(X, K):
            return perturb(real(X, K), 0, F(1, 100))

        monkeypatch.setattr(multisets, "arr_kernel", corrupted)
        with unchecked_weights():
            report = run_laws(SMALL, selection=["Lemma5.4.acc_arr"])
        assert report.total_failures > 0

    def test_corrupted_multinomial_fails(self, monkeypatch):
        from finstoch import draws

        real = draws.multinomial_kernel

        def corrupted(f, K):
            return perturb(real(f, K), 0, F(1, 100))

        monkeypatch.setattr(draws, "multinomial_kernel", corrupted)
        with unchecked_weights():
            report = run_laws(SMALL, selection=["Thm8.2.flrn"])
        assert report.total_failures > 0


class TestKernelGenerators:
    @pytest.mark.parametrize(
        "kind, size, message",
        [("generic", 7, "only generated for small domains"), ("uniform", 2, "unknown kernel kind 'uniform'")],
        ids=["generic-past-the-primes", "unknown-kind"],
    )
    def test_bad_kernel_refused(self, kind, size, message):
        from finstoch import make_finset

        with pytest.raises(ValueError, match=message):
            make_kernel(kind, make_finset("abcdefg"[:size]), make_finset(["u"]))

    def test_kinds_cover_the_design(self):
        from finstoch import make_finset

        X, Y = make_finset(["a", "b"]), make_finset(["u"])
        generic = make_kernel("generic", X, Y)
        assert generic is not None and all(r.weights for r in generic.rows)
        with pytest.raises(ValueError):
            make_kernel("iso", X, Y)  # sizes differ
        collapse = make_kernel("collapse", X, Y)
        assert collapse.is_point_masses()
        const = make_kernel("const", X, X)
        assert const.rows[0] == const.rows[1]

    def test_generic_kernel_has_distinct_entries(self):
        from finstoch import make_finset

        for n in (1, 2, 3):
            for m in (1, 2, 3):
                X = make_finset([f"x{i}" for i in range(n)])
                Y = make_finset([f"y{j}" for j in range(m)])
                k = make_kernel("generic", X, Y)
                entries = [w for row in k.rows for w in row.weights]
                if m > 1:
                    assert len(set(entries)) == len(entries)

    def test_failure_descriptions(self, monkeypatch):
        # every law below fails everywhere; the table names its first point
        ids = ["Lemma3.2.acc_perm", "Def4.1.perm_fixed", "Lemma4.2.constant"]
        for law_id in ids:
            failing = law_by_id(law_id).replace(build=lambda i: (0, 1))
            monkeypatch.setitem(laws._LAWS, law_id, failing)
        grid = GridSpec(x_sizes=(2,), y_sizes=(1,), k_values=(2,), number_sizes=(2,))
        report = run_laws(grid, selection=ids)
        assert {r.law_id: r.failures[0] for r in report.results} == {
            "Lemma3.2.acc_perm": "X={a,b} K=2 sigma=(0, 1)",
            "Def4.1.perm_fixed": "n=2 rho=(0, 1)",
            "Lemma4.2.constant": "X={a,b} Y={u} fkind=generic r=(1/2,1/2)",
        }
        # under the 17-character ids, indented past the id column
        assert " " * 19 + "FAIL at n=2 rho=(0, 1)" in report.table().splitlines()

    def test_instance_description_mentions_dims(self):
        inst = Instance(grid=SMALL, K=2, fkind="generic")
        desc = inst.describe()
        assert "K=2" in desc and "fkind=generic" in desc
