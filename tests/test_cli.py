"""The command-line interface: rendered output, exit codes, JSON."""

import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from finstoch.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reparse_total(out: str) -> F:
    total = F(0)
    for line in out.strip().splitlines():
        total += F(line.rsplit(": ", 1)[1])
    return total


class TestMultinomial:
    def test_fair_coin(self, capsys):
        code, out, _ = run_cli(capsys, "multinomial", "--dist", "h:1/2,t:1/2", "--k", "2")
        assert code == 0
        assert out.splitlines() == ["2|h|: 1/4", "1|h|+1|t|: 1/2", "2|t|: 1/4"]
        assert reparse_total(out) == 1

    def test_point_mass(self, capsys):
        code, out, _ = run_cli(capsys, "multinomial", "--dist", "a:1", "--k", "3")
        assert code == 0
        assert out.strip() == "3|a|: 1"

    def test_k1_mirrors_input(self, capsys):
        code, out, _ = run_cli(capsys, "multinomial", "--dist", "a:1/3,b:2/3", "--k", "1")
        assert code == 0
        assert out.splitlines() == ["1|a|: 1/3", "1|b|: 2/3"]

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "multinomial", "--dist", "a:1/2,b:1/3", "--k", "2")
        assert code == 2
        assert "error" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "multinomial", "--dist", "h:1/2,t:1/2", "--k", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert sum(F(e["probability"]) for e in payload["entries"]) == 1
        assert payload["entries"][0]["label"] == {"colors": ["h", "t"], "counts": [2, 0]}


class TestHypergeometric:
    def test_urn_example(self, capsys):
        code, out, _ = run_cli(capsys, "hypergeometric", "--urn", "a:2,b:1", "--draws", "2")
        assert code == 0
        assert out.splitlines() == ["2|a|: 1/3", "1|a|+1|b|: 2/3"]

    def test_zero_draws(self, capsys):
        code, out, _ = run_cli(capsys, "hypergeometric", "--urn", "a:2,b:1", "--draws", "0")
        assert code == 0
        assert out.strip() == "0: 1"

    def test_single_colour(self, capsys):
        code, out, _ = run_cli(capsys, "hypergeometric", "--urn", "a:3", "--draws", "2")
        assert code == 0
        assert out.strip() == "2|a|: 1"

    def test_overdraw_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "hypergeometric", "--urn", "a:2,b:1", "--draws", "4")
        assert code == 2
        assert "error" in err


class TestUrnCommands:
    def test_dd(self, capsys):
        code, out, _ = run_cli(capsys, "dd", "--urn", "a:2,b:1")
        assert code == 0
        assert out.splitlines() == ["2|a|: 1/3", "1|a|+1|b|: 2/3"]

    def test_flrn(self, capsys):
        code, out, _ = run_cli(capsys, "flrn", "--urn", "a:2,b:3")
        assert code == 0
        assert out.splitlines() == ["a: 2/5", "b: 3/5"]

    def test_arr(self, capsys):
        code, out, _ = run_cli(capsys, "arr", "--urn", "a:2,b:1")
        assert code == 0
        assert out.splitlines() == [
            "(a,a,b): 1/3",
            "(a,b,a): 1/3",
            "(b,a,a): 1/3",
        ]

    def test_mzip(self, capsys):
        code, out, _ = run_cli(capsys, "mzip", "--left", "a:1,b:1", "--right", "c:1,d:1")
        assert code == 0
        assert out.splitlines() == [
            "1|(a,c)|+1|(b,d)|: 1/2",
            "1|(a,d)|+1|(b,c)|: 1/2",
        ]
        assert reparse_total(out) == 1

    def test_mzip_size_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "mzip", "--left", "a:1", "--right", "c:2")
        assert code == 2

    def test_msplit(self, capsys):
        code, out, _ = run_cli(capsys, "msplit", "--urn", "x:2,y:1", "--left", "x")
        assert code == 0
        assert out.strip() == "#2:(2|x|,1|y|): 1"

    def test_msplit_pure_right(self, capsys):
        code, out, _ = run_cli(capsys, "msplit", "--urn", "x:0,y:2", "--left", "x")
        assert code == 0
        assert out.strip() == "#0:(0,2|y|): 1"

    def test_msplit_unknown_left_label(self, capsys):
        code, _, err = run_cli(capsys, "msplit", "--urn", "x:1,y:1", "--left", "z")
        assert code == 2

    def test_empty_urn_dd_rejected(self, capsys):
        code, _, err = run_cli(capsys, "dd", "--urn", "a:0")
        assert code == 2


class TestLargeUrns:
    """Urns far past the interpreter's recursion depth, in balls or in colours."""

    def test_arr_of_2000_balls(self, capsys):
        code, out, _ = run_cli(capsys, "arr", "--urn", "a:2000")
        assert code == 0
        assert out.splitlines() == ["(" + ",".join(["a"] * 2000) + "): 1"]

    def test_flrn_over_1200_colours(self, capsys):
        urn = ",".join(f"c{i}:0" for i in range(1199)) + ",z:1"
        code, out, _ = run_cli(capsys, "flrn", "--urn", urn)
        assert code == 0
        assert out.splitlines() == ["z: 1"]


MALFORMED_URNS = [
    '{"colors": ["a", "b"], "counts": [1.5, 1]}',
    '{"colors": ["a", "b"], "counts": [2.0, 1]}',
    '{"colors": ["a", "b"], "counts": ["1", 1]}',
    '{"colors": ["a", "b"], "counts": 5}',
    '{"colors": [["a"], "b"], "counts": [1, 1]}',
    '{"colors": "ab", "counts": [2, 1]}',
    '{"colors": ["a", "b"], "counts": [true, 1]}',
]


@pytest.mark.parametrize("urn", MALFORMED_URNS)
@pytest.mark.parametrize(
    "command",
    [
        lambda urn: ("flrn", "--urn", urn),
        lambda urn: ("hypergeometric", "--urn", urn, "--draws", "1"),
        lambda urn: ("mzip", "--left", urn, "--right", "c:1,d:1"),
    ],
    ids=["flrn", "hypergeometric", "mzip"],
)
def test_malformed_json_urn_exits_2(capsys, command, urn):
    code, out, err = run_cli(capsys, *command(urn))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_query_commands_do_not_import_the_law_runner():
    probe = "import sys, finstoch.cli; print({'finstoch.laws', 'concurrent.futures'} & set(sys.modules))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "set()"


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand in for the law runner's process pool; record each pool's size."""
    from finstoch import laws

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(laws, "ProcessPoolExecutor", SerialPool)
    return sizes


class TestLawsCommand:
    def test_single_law_passes(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "--law", "Thm8.3.flrn", "--max-set", "2", "--max-k", "2")
        assert code == 0
        assert "Thm8.3.flrn" in out

    def test_unknown_law_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "laws", "--law", "NoSuchLaw")
        assert code == 2

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "laws", "--law", "Eq3.dd_square", "--max-set", "2", "--max-k", "2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_failures"] == 0
        assert payload["laws"][0]["law_id"] == "Eq3.dd_square"
        assert "paper_ref" in payload["laws"][0]

    def test_usage_error_exits_2(self, capsys):
        assert main(["multinomial", "--k", "2"]) == 2

    def test_jobs_capped_at_one_worker_per_law(self, capsys, serial_pool):
        code, out, _ = run_cli(
            capsys, "laws", "--law", "Eq3.dd_square", "--law", "Lemma5.4.acc_arr", "--jobs", "1000000"
        )
        assert code == 0
        assert serial_pool == [2]
        assert "Eq3.dd_square" in out and "Lemma5.4.acc_arr" in out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, capsys, serial_pool, jobs):
        code, out, err = run_cli(capsys, "laws", "--law", "Eq3.dd_square", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert serial_pool == []


class TestSumToOneEverywhere:
    @pytest.mark.parametrize(
        "argv",
        [
            ("multinomial", "--dist", "a:1/6,b:1/3,c:1/2", "--k", "3"),
            ("hypergeometric", "--urn", "a:3,b:2", "--draws", "3"),
            ("dd", "--urn", "a:1,b:1,c:2"),
            ("flrn", "--urn", "a:4,b:1"),
            ("arr", "--urn", "a:2,b:2"),
            ("mzip", "--left", "a:2,b:1", "--right", "c:1,d:2"),
            ("msplit", "--urn", "x:1,y:2", "--left", "x"),
        ],
    )
    def test_probabilities_sum_to_exactly_one(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert reparse_total(out) == 1
