"""Command line behavior: outputs, formats, exit codes, determinism."""

import ast
import csv
import inspect
import io
import json
import pathlib
import signal
import time

import pytest

from lagrange_kit import cli, trees
from lagrange_kit.errors import SizeLimit
from lagrange_kit.identities import (
    IDENTITY_CATALOG,
    N_MAX_LIMIT,
    IdentityReport,
    run_identity,
)
from lagrange_kit.lagrange import solve_xR
from lagrange_kit.series import PowerSeries


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def run_cli_with_deadline(*argv):
    """run_cli and its wall time; an unchecked input could run for hours,
    so an ITIMER_REAL stops the call after 5 s and fails the test."""

    def expire(signum, frame):
        raise TimeoutError("%s ran past 5 s" % " ".join(argv))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        started = time.perf_counter()
        code, text = run_cli(*argv)
        elapsed = time.perf_counter() - started
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, text, elapsed


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestCoeffs:
    def test_binary_weights_column(self):
        code, text = run_cli(
            "coeffs", "--R", "1,2,1", "--k", "1", "--order", "6",
            "--format", "csv",
        )
        assert code == 0
        rows = csv_rows(text)
        assert rows[0] == ["n", "value"]
        assert [r[1] for r in rows[1:]] == ["0", "1", "2", "5", "14", "42"]

    def test_trivial_weight(self):
        code, text = run_cli(
            "coeffs", "--R", "1", "--order", "4", "--format", "csv"
        )
        assert code == 0
        assert [r[1] for r in csv_rows(text)[1:]] == ["0", "1", "0", "0"]

    def test_default_weight_is_geometric(self):
        code, text = run_cli("coeffs", "--order", "6", "--format", "csv")
        assert code == 0
        assert [r[1] for r in csv_rows(text)[1:]] == [
            "0", "1", "1", "2", "5", "14",
        ]

    def test_exp_preset_square(self):
        code, text = run_cli(
            "coeffs", "--R", "exp", "--k", "2", "--order", "6",
            "--format", "csv",
        )
        assert code == 0
        assert [r[1] for r in csv_rows(text)[1:]] == [
            "0", "0", "1", "2", "4", "25/3",
        ]

    @pytest.mark.parametrize("order", ["1", "2"])
    def test_preset_longer_than_the_order_is_cut(self, order):
        code, text = run_cli(
            "coeffs", "--R", "one-plus-t-squared", "--order", order,
            "--format", "csv",
        )
        assert code == 0
        assert (code, text) == run_cli(
            "coeffs", "--R", "1,0,1", "--order", order, "--format", "csv"
        )

    def test_json_payload(self):
        code, text = run_cli(
            "coeffs", "--R", "geom", "--order", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["schema"] == 1
        assert payload["command"] == "coeffs"
        assert payload["k"] == 1
        assert payload["rows"][2] == {"n": 2, "value": "1"}

    def test_pretty_reports_elapsed(self):
        code, text = run_cli("coeffs", "--order", "4")
        assert code == 0
        assert "elapsed:" in text
        assert "ms" in text

    def test_nonpositive_k_rejected(self):
        code, _ = run_cli("coeffs", "--k", "0")
        assert code == 2

    def test_weight_needs_unit(self):
        code, _ = run_cli("coeffs", "--R", "0,1")
        assert code == 2

    def test_k_below_one_is_refused_by_solve_xR(self, capsys):
        code, text = run_cli("coeffs", "--k", "0")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: k must be at least 1\n"


class TestInvert:
    def test_catalan_inverse(self):
        code, text = run_cli(
            "invert", "--R", "0,1,-1", "--order", "8", "--format", "csv"
        )
        assert code == 0
        assert [r[1] for r in csv_rows(text)[1:]] == [
            "0", "1", "1", "2", "5", "14", "42", "132",
        ]

    def test_requires_series(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("invert")
        assert exc.value.code == 2

    def test_non_reversible_is_usage_error(self):
        code, _ = run_cli("invert", "--R", "1,1")
        assert code == 2

    def test_bad_literal_position(self, capsys):
        code, _ = run_cli("invert", "--R", "0,1,oops")
        assert code == 2
        err = capsys.readouterr().err
        assert "oops" in err
        assert "position 4" in err


class TestLiteralAndPrintLimits:
    """A literal's numerator and denominator take at most 64 bits, read
    before the value is built, and a coefficient past Python's int digit
    limit is named instead of escaping as a traceback."""

    @pytest.mark.parametrize(
        "argv, literal",
        [
            (("coeffs", "--R=1,1e-2000", "--order", "200"), "'1e-2000' at position 2"),
            (("invert", "--R=0,1,1e-3000", "--order", "200"), "'1e-3000' at position 4"),
            (("coeffs", "--R=1e-100000000", "--order", "2"), "'1e-100000000' at position 0"),
            (("coeffs", "--R=1,18446744073709551616", "--order", "3"),
             "'18446744073709551616' at position 2"),
            (("coeffs", "--R=1,1/18446744073709551616", "--order", "3"),
             "'1/18446744073709551616' at position 2"),
        ],
    )
    def test_literal_past_64_bits_fails_fast(self, argv, literal, capsys):
        code, text, elapsed = run_cli_with_deadline(*argv)
        err = capsys.readouterr().err
        assert elapsed < 1.0
        assert code == 2
        assert text == ""
        assert err == "error: rational literal %s exceeds 64 bits\n" % literal

    def test_64_bit_literals_accepted(self):
        code, text = run_cli(
            "coeffs", "--R=18446744073709551615,-1/18446744073709551557,2.5e-3",
            "--order", "3", "--format", "csv",
        )
        assert code == 0
        # [x^2] f = r0 r1 for f = x R(f)
        assert csv_rows(text)[1:] == [
            ["0", "0"], ["1", "18446744073709551615"],
            ["2", "-18446744073709551615/18446744073709551557"],
        ]

    def test_unprintable_coefficient_is_named(self, capsys):
        # the inverse's coefficients grow as p^(2n) for the 64-bit prime p
        code, text, _ = run_cli_with_deadline(
            "invert", "--R=0,1/18446744073709551557,1", "--order", "120",
            "--format", "csv",
        )
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == (
            "error: the coefficient of x^111 has too many digits to print\n"
        )

    def test_unprintable_literal_is_rejected(self, capsys):
        code, text, _ = run_cli_with_deadline("coeffs", "--R=1e-5000", "--order", "2")
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_row_writer_raises_size_limit(self):
        # f = x R(f) for R = 10^5000 is 10^5000 x
        big = PowerSeries([10 ** 5000], 3)
        args = cli.build_parser().parse_args(["coeffs", "--format", "csv"])
        meta = {"command": "coeffs", "R": "big", "k": 1, "order": 3}
        out = io.StringIO()
        with pytest.raises(SizeLimit, match="coefficient of x\\^1 has too many digits"):
            cli._emit_coefficients(args, solve_xR(big), meta, 0.0, out)
        assert out.getvalue() == ""


class TestIdentity:
    def test_lacasse_passes(self):
        code, text = run_cli("identity", "lacasse", "--order", "12")
        assert code == 0
        assert "identity lacasse: PASS" in text

    def test_fc_polynomial_prints_picture(self):
        code, text = run_cli(
            "identity", "fc-polynomial", "--p", "3", "--i", "0", "--j", "2",
            "--order", "16",
        )
        assert code == 0
        assert "polynomial: 2 - x" in text
        assert "branch: vanishing" in text

    def test_fc_polynomial_line_reads_as_str_writes_a_series(self):
        code, text = run_cli(
            "identity", "fc-polynomial", "--p", "4", "--i", "0", "--j", "4"
        )
        assert code == 0
        assert "polynomial: 1365 - 1209*x + 767*x^2 - 243*x^3\n" in text

    def test_jensen_with_zero_p(self):
        code, text = run_cli(
            "identity", "jensen", "--p", "0", "--j", "1", "--r", "2",
            "--n-max", "5",
        )
        assert code == 0
        assert "PASS" in text

    def test_oversized_n_max_fails_fast(self, capsys):
        code, text, elapsed = run_cli_with_deadline(
            "identity", "jensen", "--n-max", "100000", "--format", "csv"
        )
        assert elapsed < 1.0
        assert code == 2
        assert text == ""
        assert "exceeds the limit 50" in capsys.readouterr().err

    def test_negative_n_max_fails_fast(self, capsys):
        code, text, elapsed = run_cli_with_deadline(
            "identity", "jensen", "--n-max", "-1", "--format", "json"
        )
        assert elapsed < 1.0
        assert code == 2
        assert text == ""
        assert "n_max = -1 is negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("fc-polynomial", "--p", "1"),
            ("fc-polynomial", "--i", "-1"),
            ("rational-expansion", "--r", "-1"),
            ("fc-polynomial", "--p", "10000", "--order", "30"),
            ("fc-polynomial", "--i", "100000"),
            ("fc-polynomial", "--j", "51"),
            ("fc-polynomial", "--i", "40", "--order", "30"),
            ("fc-polynomial", "--j", "40", "--order", "30"),
        ],
    )
    def test_bad_suite_parameter_fails_fast(self, argv, capsys):
        code, text, elapsed = run_cli_with_deadline("identity", *argv)
        err = capsys.readouterr().err
        assert elapsed < 1.0
        assert code == 2
        assert text == ""
        assert "Traceback" not in err
        assert "must be" in err

    @pytest.mark.parametrize(
        "name",
        [
            name
            for name, func in sorted(IDENTITY_CATALOG.items())
            if "order" in inspect.signature(func).parameters
        ],
    )
    @pytest.mark.parametrize("order", range(1, 7))
    def test_low_orders_run_or_fail_fast(self, name, order, capsys):
        code, text, elapsed = run_cli_with_deadline(
            "identity", name, "--order", str(order), "--format", "csv"
        )
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code != 0:
            assert code == 2
            assert elapsed < 1.0
            assert text == ""
            assert "needs order >=" in err

    def test_n_max_limit_is_inclusive(self):
        with pytest.raises(SizeLimit):
            run_identity("jensen", n_max=N_MAX_LIMIT + 1)
        assert run_identity("jensen", n_max=N_MAX_LIMIT).passed

    def test_json_shape(self):
        code, text = run_cli(
            "identity", "catalan", "--order", "10", "--format", "json"
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["schema"] == 1
        assert payload["status"] == "pass"
        assert payload["identity"] == "catalan"
        assert "elapsed_ms" not in payload

    def test_csv_shape(self):
        code, text = run_cli(
            "identity", "raney", "--format", "csv"
        )
        assert code == 0
        rows = csv_rows(text)
        assert rows[0] == [
            "identity", "params", "order", "status", "first_failure",
        ]
        assert rows[1][0] == "raney"
        assert rows[1][3] == "pass"

    def test_unknown_name(self, capsys):
        code, _ = run_cli("identity", "nope")
        assert code == 2
        assert "catalan" in capsys.readouterr().err

    def test_foreign_flag_rejected(self, capsys):
        code, _ = run_cli("identity", "catalan", "--p", "3")
        assert code == 2
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name",
        [
            name
            for name, func in sorted(IDENTITY_CATALOG.items())
            if "order" not in inspect.signature(func).parameters
        ],
    )
    def test_order_rejected_where_no_order_is_taken(self, name, capsys):
        code, text, elapsed = run_cli_with_deadline(
            "identity", name, "--order", "60"
        )
        assert elapsed < 1.0
        assert code == 2
        assert text == ""
        assert "does not take --order" in capsys.readouterr().err

    def test_default_order_is_30(self):
        assert run_cli("identity", "narayana")[0] == 0
        assert run_cli("identity", "lacasse", "--format", "json") == run_cli(
            "identity", "lacasse", "--order", "30", "--format", "json"
        )

    def test_failing_identity_exits_one(self, monkeypatch):
        def always_fails(order=30):
            return IdentityReport(
                name="always-fails", params={}, order=order, status="fail",
                first_failure="numbers disagree", elapsed_ms=0.0,
            )

        monkeypatch.setitem(IDENTITY_CATALOG, "always-fails", always_fails)
        code, text = run_cli("identity", "always-fails")
        assert code == 1
        assert "FAIL" in text
        assert "numbers disagree" in text


class TestOracle:
    def test_prufer_counts(self):
        code, text = run_cli(
            "oracle", "prufer", "--m", "5", "--format", "csv"
        )
        assert code == 0
        rows = csv_rows(text)
        assert rows[1][1:] == ["125", "125", "yes"]
        assert all(r[3] == "yes" for r in rows[1:])

    def test_cycle_lemma_alphabet_with_negatives(self):
        code, text = run_cli(
            "oracle", "cycle-lemma", "--alphabet", "-1,0,1", "--len", "5",
            "--format", "csv",
        )
        assert code == 0
        assert all(r[3] == "yes" for r in csv_rows(text)[1:])

    def test_repeated_alphabet_keeps_the_last(self):
        repeated = run_cli(
            "oracle", "cycle-lemma", "--alphabet", "-1", "--alphabet", "-1,1",
            "--len", "3", "--format", "csv",
        )
        joined = run_cli(
            "oracle", "cycle-lemma", "--alphabet=-1,1", "--len", "3",
            "--format", "csv",
        )
        assert repeated == joined
        assert repeated[0] == 0

    def test_single_vertex_forest(self):
        code, text = run_cli(
            "oracle", "ordered-forest", "--n", "1", "--k", "1",
            "--format", "csv",
        )
        assert code == 0
        rows = csv_rows(text)
        assert len(rows) == 2
        assert rows[1][1:] == ["1", "1", "yes"]

    def test_labeled_forest(self):
        code, text = run_cli(
            "oracle", "labeled-forest", "--n", "4", "--k", "2",
            "--format", "csv",
        )
        assert code == 0
        assert all(r[3] == "yes" for r in csv_rows(text)[1:])

    def test_degree_trees_includes_totals(self):
        code, text = run_cli(
            "oracle", "degree-trees", "--m", "4", "--format", "csv"
        )
        assert code == 0
        rows = csv_rows(text)
        labels = [r[0] for r in rows[1:]]
        assert "total (Cayley)" in labels
        assert "formula total" in labels
        assert all(r[3] == "yes" for r in rows[1:])

    def test_mismatch_exits_one(self, monkeypatch):
        monkeypatch.setattr(
            "lagrange_kit.trees.count_by_profile", lambda n, k, p: 999
        )
        code, text = run_cli(
            "oracle", "ordered-forest", "--n", "3", "--k", "1",
            "--format", "csv",
        )
        assert code == 1
        assert any(r[3] == "NO" for r in csv_rows(text)[1:])

    def test_bad_alphabet_entry(self):
        code, _ = run_cli("oracle", "cycle-lemma", "--alphabet", "-2,1")
        assert code == 2

    def test_bad_alphabet_literal(self):
        code, _ = run_cli("oracle", "cycle-lemma", "--alphabet", "1,x")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("degree-trees", "--m", "0"),
            ("degree-trees", "--m", "1"),
            ("prufer", "--m", "1"),
            ("ordered-forest", "--n", "0"),
            ("ordered-forest", "--k", "0"),
            ("labeled-forest", "--n", "0"),
            ("labeled-forest", "--k", "0"),
            ("cycle-lemma", "--len", "0"),
            ("ordered-forest", "--n", "3", "--k", "5"),
            ("labeled-forest", "--n", "2", "--k", "4"),
            ("cycle-lemma", "--alphabet", "0,1,2"),
            ("prufer", "--n", "8"),
        ],
    )
    def test_out_of_range_arguments(self, argv, capsys):
        code, text = run_cli("oracle", *argv, "--format", "csv")
        assert code == 2
        assert text == ""
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("cycle-lemma", "--len", "40"),
            ("cycle-lemma", "--alphabet", "-1", "--len", "1000000000"),
            ("ordered-forest", "--n", "1000"),
            ("labeled-forest", "--n", "8"),
            ("degree-trees", "--m", "9"),
            ("prufer", "--m", "9"),
        ],
    )
    def test_oversized_arguments_fail_fast(self, argv, capsys):
        code, text, elapsed = run_cli_with_deadline("oracle", *argv, "--format", "csv")
        assert elapsed < 1.0
        assert code == 2
        assert text == ""
        assert "enumeration limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flag",
        [
            ("prufer", "n"),
            ("degree-trees", "len"),
            ("ordered-forest", "m"),
            ("labeled-forest", "alphabet"),
            ("cycle-lemma", "k"),
        ],
    )
    def test_flag_the_kind_does_not_read(self, kind, flag, capsys):
        # rejected before any work, even at a value the kind would accept
        code, text = run_cli("oracle", kind, "--%s" % flag, "3", "--format", "csv")
        assert code == 2
        assert text == ""
        assert "oracle %r does not take --%s" % (kind, flag) in capsys.readouterr().err

    def test_every_kind_has_its_flags(self):
        assert set(cli._ORACLE_FLAGS) == set(trees.ORACLE_KINDS)

    def test_cycle_lemma_limit_admits_length_ten(self):
        # the checks run before the first row; the length-1 row is cheap
        sizes = dict(n=6, k=1, m=5, alphabet=[-1, 0, 1, 2])
        next(trees.oracle_rows("cycle-lemma", length=10, **sizes))
        with pytest.raises(SizeLimit):
            next(trees.oracle_rows("cycle-lemma", length=11, **sizes))

    def test_cli_leaves_limits_and_censuses_to_trees(self):
        # the enumeration limits, argument checks and census loops live in
        # trees alone; the CLI parses, builds the meta dict and formats
        banned = {
            "count_by_profile",
            "labeled_forest_profile_count",
            "count_degree_trees",
            "prufer_encode",
            "prufer_decode",
            "cycle_lemma_count",
        }
        for node in ast.walk(ast.parse(pathlib.Path(cli.__file__).read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            assert not (name.endswith("_LIMIT") or name in banned), name


class TestList:
    def test_pretty_lists_every_identity(self):
        code, text = run_cli("list")
        names = [l for l in text.splitlines() if l]
        assert code == 0
        assert len(names) == 19
        assert "catalan" in names

    def test_csv_header(self):
        code, text = run_cli("list", "--format", "csv")
        rows = csv_rows(text)
        assert rows[0] == ["identity"]
        assert len(rows) == 20

    def test_json(self):
        code, text = run_cli("list", "--format", "json")
        payload = json.loads(text)
        assert payload["schema"] == 1
        assert len(payload["identities"]) == 19


class TestFlagSpelling:
    @pytest.mark.parametrize(
        "argv",
        [
            # read as --seed, --n-max, --order and --alphabet with prefixes on
            ("identity", "rational-expansion", "--s", "3"),
            ("identity", "abel", "--n", "4"),
            ("coeffs", "--R", "1,1", "--o", "4"),
            ("oracle", "cycle-lemma", "--al=-1,1", "--len", "2"),
        ],
    )
    def test_abbreviated_flag_exits_2(self, argv):
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv), out=out)
        assert exc.value.code == 2
        assert out.getvalue() == ""


class TestOrderlessCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "prufer", "--m", "4", "--order", "60"),
            ("oracle", "cycle-lemma", "--order", "30", "--format", "csv"),
            ("oracle", "degree-trees", "--order", "500"),
            ("list", "--order", "60"),
            ("list", "--order", "30", "--format", "json"),
        ],
    )
    def test_order_is_rejected(self, argv, capsys):
        code, text = run_cli(*argv)
        assert code == 2
        assert text == ""
        assert "does not take --order" in capsys.readouterr().err

    def test_without_order_they_run(self):
        assert run_cli("oracle", "prufer", "--m", "4")[0] == 0
        assert run_cli("list")[0] == 0


class TestOrderCap:
    def test_default_cap(self):
        code, _ = run_cli("coeffs", "--order", "201")
        assert code == 2
        code, _ = run_cli("coeffs", "--order", "0")
        assert code == 2
        # the bound is inclusive; R = 1 gives f = x, so this runs at once
        code, _ = run_cli("coeffs", "--R", "1", "--order", "200", "--format", "csv")
        assert code == 0

    def test_env_cannot_lift_cap(self, monkeypatch):
        # the cap is a constant: no variable of the environment raises it
        monkeypatch.setenv("LAGRANGE_KIT_MAX_ORDER", "1000")
        code, _ = run_cli("coeffs", "--order", "201")
        assert code == 2


class TestDeterminism:
    def test_subcommands_back_to_back_in_one_process(self, monkeypatch):
        # main builds its parser once per process; no run may see the flags
        # or defaults of the run before it
        runs = [
            ("coeffs", "--R", "1,1/2", "--k", "2", "--order", "8", "--format", "csv"),
            ("oracle", "prufer", "--m", "4", "--format", "json"),
            ("coeffs", "--order", "201"),
            ("identity", "rothe-hagen", "--format", "json"),
            ("oracle", "prufer", "--format", "csv"),
            ("invert", "--R", "0,1,1", "--order", "6", "--format", "csv"),
            ("list", "--format", "json"),
            ("coeffs", "--format", "csv"),
        ]
        cli.build_parser.cache_clear()
        shared = [run_cli(*argv) for argv in runs]
        assert cli.build_parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run_cli(*argv) for argv in runs]
        assert shared == fresh
        assert [code for code, _ in shared] == [0, 0, 2, 0, 0, 0, 0, 0]
        # the flags left out fall back to their defaults: geom and k = 1
        # give the Catalan numbers, and prufer runs at m = 5
        assert csv_rows(shared[-1][1])[1:6] == [
            ["0", "0"], ["1", "1"], ["2", "1"], ["3", "2"], ["4", "5"]
        ]
        assert json.loads(shared[1][1])["m"] == 4
        assert csv_rows(shared[4][1])[1][0] == "trees on [5]"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_identity_output_is_stable(self, fmt):
        argv = ("identity", "rothe-hagen", "--format", fmt)
        first = run_cli(*argv)
        assert first[0] == 0
        assert first == run_cli(*argv)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_coeffs_output_is_stable(self, fmt):
        argv = ("coeffs", "--R", "1,1/2,1/3", "--order", "12", "--format", fmt)
        assert run_cli(*argv) == run_cli(*argv)

    def test_oracle_output_is_stable(self):
        argv = ("oracle", "degree-trees", "--m", "5", "--format", "csv")
        assert run_cli(*argv) == run_cli(*argv)
