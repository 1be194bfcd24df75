"""The command-line interface: rendered output, exit codes, JSON."""

import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finstoch.cli import main
from finstoch.laws import GridSpec


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

    def test_exponent_weight_exits_2_at_once(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "multinomial", "--dist", "a:1e99999999", "--k", "1")
        assert time.perf_counter() - started < 1
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "bad rational" in err

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


HUGE = "99999999999999999999"
CEILING = "exceeds limit 20000"


@pytest.mark.parametrize(
    "argv, named",
    [
        (("multinomial", "--dist", "a:1", "--k", HUGE), f"--k {HUGE} is too large"),
        (("arr", "--urn", f"a:{HUGE}"), f"urn size {HUGE} is too large"),
        (("mzip", "--left", f"a:{HUGE}", "--right", f"c:{HUGE}"), f"urn size {HUGE} is too large"),
        (("multinomial", "--dist", "a:1/2,b:1/2", "--k", HUGE), CEILING),
        (("hypergeometric", "--urn", f"a:{HUGE},b:1", "--draws", "1"), CEILING),
        (("dd", "--urn", f"a:{HUGE},b:1"), CEILING),
        (("flrn", "--urn", f"a:{HUGE},b:1"), CEILING),
        (("msplit", "--urn", f"a:{HUGE},b:1", "--left", "a"), CEILING),
        (("mzip", "--left", "a:4,b:4", "--right", "c:4,d:4"), CEILING),
        # one colour: every carrier has one element, but the tuple length or
        # multiset size passes the ceiling
        (("hypergeometric", "--urn", f"a:{HUGE}", "--draws", "999999999999999999"), f"urn size {HUGE} is too large"),
        (("msplit", "--urn", f"a:{HUGE}", "--left", "a"), f"urn size {HUGE} is too large"),
        (("multinomial", "--dist", "a:1", "--k", "1099511627776"), "--k 1099511627776 is too large"),
        (("arr", "--urn", "a:1099511627776"), "urn size 1099511627776 is too large"),
        # two colours: the carrier's size has more digits than Python's int-to-str limit
        (("arr", "--urn", "a:1,b:19999"), "urn size 20000 is too large"),
        (("multinomial", "--dist", "a:1/2,b:1/2", "--k", "19999"), "--k 19999 is too large"),
    ],
    ids=["multinomial", "arr", "mzip", "multinomial-two-colours", "hypergeometric", "dd", "flrn", "msplit",
         "mzip-past-ceiling", "hypergeometric-one-colour", "msplit-one-colour", "multinomial-one-colour-2^40",
         "arr-one-colour-2^40", "arr-past-str-digits", "multinomial-past-str-digits"],
)
def test_oversized_query_exits_2(capsys, argv, named):
    # each fails at once, before anything is allocated: an index-sized
    # integer overflows, or a carrier, tuple length or multiset size past
    # the ceiling is refused by size
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named in err


@pytest.mark.parametrize(
    "argv",
    [("laws", "--max-set", "0"), ("laws", "--max-k", "0"), ("flrn", "--urn", "a:0")],
    ids=["max-set", "max-k", "empty-flrn"],
)
def test_below_one_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_query_commands_do_not_import_the_law_runner():
    probe = "import sys, finstoch.cli; print({'finstoch.laws', 'concurrent.futures'} & set(sys.modules))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "set()"


def test_cli_import_is_lean_and_laws_still_run():
    # every query pays for this import: it loads neither dataclasses nor the law runner
    probe = "import sys, finstoch.cli; print(sorted({'dataclasses', 'finstoch.laws'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
    argv = [sys.executable, "-m", "finstoch.cli", "laws", "--max-set", "1", "--max-k", "1"]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_closed_pipe_exits_2_without_traceback():
    # 88,900 bytes of output: more than a pipe holds, so the write fails once the reader is gone
    argv = [sys.executable, "-m", "finstoch.cli", "hypergeometric", "--urn", "a:300,b:300", "--draws", "300"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err


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

    def test_jobs_option_is_gone(self, capsys):
        code, out, _ = run_cli(capsys, "laws", "--law", "Eq3.dd_square", "--jobs", "2")
        assert code == 2
        assert out == ""

    def test_grid_flags_build_the_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "laws", "--law", "Eq3.dd_square", "--max-set", "2", "--max-k", "2", "--json"
        )
        assert code == 0
        defaults = json.loads(json.dumps(asdict(GridSpec())))
        expected = {**defaults, "x_sizes": [1, 2], "y_sizes": [1, 2], "k_values": [0, 1, 2]}
        assert json.loads(out)["grid"] == expected


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


QUERY_COMMANDS = ["multinomial", "hypergeometric", "dd", "flrn", "arr", "mzip", "msplit"]
TRANSCRIPT = json.loads((Path(__file__).parent / "cli_transcript.json").read_text())


@pytest.mark.parametrize("call", TRANSCRIPT, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(TRANSCRIPT)])
def test_transcript_is_byte_identical(capsys, call):
    # pinned output of the README examples, JSON rows, every message that
    # finstoch composes and the oversized queries
    code, out, err = run_cli(capsys, *call["argv"])
    assert (out, err, code) == (call["stdout"], call["stderr"], call["exit"])


@pytest.mark.parametrize("command", [*QUERY_COMMANDS, "laws"])
def test_every_subcommand_has_help(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: finstoch {command} ")
    assert ("--format {text,json}" in out) == (command in QUERY_COMMANDS)


# labels are mostly good, but include junk that the parsers must refuse;
# counts include two sentinels that the carrier ceiling must refuse before
# anything is built
GOOD_LABELS = ["a", "b", "c"]
JUNK_LABELS = ["", "a:b", "{", " x "]
COUNTS = [0, 1, 2, 3, 4, 5, int(HUGE), 2**40]
sizes = st.sampled_from([-1, *COUNTS]).map(str)
labels = st.lists(st.sampled_from(GOOD_LABELS), unique=True, min_size=1, max_size=3) | st.lists(
    st.sampled_from(GOOD_LABELS + JUNK_LABELS), max_size=3
)


@st.composite
def urns(draw):
    return ",".join(f"{lab}:{draw(st.sampled_from(COUNTS))}" for lab in draw(labels))


@st.composite
def dists(draw):
    labs = draw(labels)
    counts = [draw(st.sampled_from(COUNTS)) for _ in labs]
    total = sum(counts) or 1
    return ",".join(f"{lab}:{c}/{total}" for lab, c in zip(labs, counts))


queries = st.one_of(
    st.tuples(st.just("multinomial"), st.just("--dist"), dists(), st.just("--k"), sizes),
    st.tuples(st.just("hypergeometric"), st.just("--urn"), urns(), st.just("--draws"), sizes),
    st.tuples(st.sampled_from(["dd", "flrn", "arr"]), st.just("--urn"), urns()),
    # an urn zipped with itself has a size to match
    st.tuples(urns(), urns()).map(lambda lr: ("mzip", "--left", lr[0], "--right", lr[1])),
    urns().map(lambda u: ("mzip", "--left", u, "--right", u)),
    st.tuples(st.just("msplit"), st.just("--urn"), urns(), st.just("--left"), labels.map(",".join)),
)


@settings(max_examples=200, deadline=None)
@given(argv=queries, fmt=st.sampled_from(["text", "json"]))
def test_query_exits_0_or_2_and_never_raises(argv, fmt):
    # capsys is function-scoped, which hypothesis refuses, so redirect by hand
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    if code == 0:
        assert err.getvalue() == ""
        if fmt == "json":
            assert sum(F(e["probability"]) for e in json.loads(out.getvalue())["entries"]) == 1
        else:
            assert reparse_total(out.getvalue()) == 1
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
