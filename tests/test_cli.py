"""Command line surface: formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from s3harm import bases, cli, deck, induced


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_group_count_only(capsys):
    code, out = run(capsys, ["group", "--which", "G", "--count-only"])
    assert code == 0
    assert "384" in out


def test_group_listing_json(capsys):
    code, out = run(capsys, ["group", "--which", "C2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "s3harm/1"
    rows = payload["rows"]
    assert len(rows) == 8
    assert rows[-1]["label"] == "e"
    assert rows[0]["label"] == "g1"
    assert "pair_left" in rows[0] and "pair_right" in rows[0]


def test_full_group_listing_has_384_rows(capsys):
    code, out = run(capsys, ["group", "--which", "G", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 384


def test_multiplicity_json_matches_frozen_rows(capsys):
    code, out = run(capsys, ["multiplicity", "--manifold", "C2", "--jmax", "8",
                             "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [r["m"] for r in payload["rows"]] == [1, 1, 7, 11, 23, 27, 45, 53, 77]
    code, out = run(capsys, ["multiplicity", "--manifold", "C3", "--jmax", "8",
                             "--format", "json"])
    payload = json.loads(out)
    assert [r["m"] for r in payload["rows"]] == [1, 0, 10, 7, 27, 22, 52, 45, 85]


def test_multiplicity_csv(capsys):
    code, out = run(capsys, ["multiplicity", "--manifold", "C3", "--jmax", "4",
                             "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    assert rows[2]["j"] == "2" and rows[2]["m"] == "10"


def test_basis_counts(capsys):
    code, out = run(capsys, ["basis", "--manifold", "C3", "--j", "2",
                             "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 10
    assert len(payload["rows"]) == 10
    code, out = run(capsys, ["basis", "--manifold", "C2", "--j", "1",
                             "--format", "json"])
    assert json.loads(out)["count"] == 1
    code, out = run(capsys, ["basis", "--manifold", "C3", "--j", "1",
                             "--format", "json"])
    assert json.loads(out)["count"] == 0


# SHA-256 of `s3harm basis --manifold M --j J --format F` for J = 0..12, the
# outputs concatenated, as the nested loops over (m1, m2) once printed them
BASIS_DIGESTS = {
    ("C2", "json"): "df486cce988e94813149011eb812a58f93b8aa2fbee397d2d9b37541da2b9d3a",
    ("C2", "csv"): "78d253a578a595b7e57e1734d3bece2f82990c460da06f7f2e04d9d3dce1d21c",
    ("C2", "text"): "b0040098f6688995ac74c3b609c3a2ae7d13a1fca2a8bf9b2a96b1485c4bbf76",
    ("C3", "json"): "904838db9bde9b1b040878e53040cdb9f3529dc197f7fb951f663f6e8fadcc45",
    ("C3", "csv"): "fc504db75e20ca5859a1af32d1adb9e4c569e4f18fefdf6ddd9fd7c70276a637",
    ("C3", "text"): "64d476379c865a3d0e87b7a4d62c99e058f324895b934d394b482d2bbc62c2a4",
}


@pytest.mark.parametrize("manifold, fmt", sorted(BASIS_DIGESTS))
def test_basis_output_bytes_are_locked(capsys, manifold, fmt):
    digest = hashlib.sha256()
    for j in range(13):
        code, out = run(capsys, ["basis", "--manifold", manifold, "--j", str(j), "--format", fmt])
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == BASIS_DIGESTS[manifold, fmt]


def test_verify_builds_no_basis_record(capsys, monkeypatch):
    # verify audits each manifold's table as the selection rules build it
    made = []
    real_init = bases.BasisFunction.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(bases.BasisFunction, "__init__", counting_init)
    code, out = run(capsys, ["verify", "--suite", "basis", "--jmax", "12", "--format", "json"])
    assert code == 0 and json.loads(out)["passed"] is True
    assert made == []
    bases.basis_c2(1)  # the records themselves are counted
    assert made == [1]


def test_induced_summary(capsys):
    code, out = run(capsys, ["induced", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sum_dim_sq"] == 384
    assert payload["sum_dim_m_c8"] == 48
    assert payload["sum_dim_m_q"] == 48
    assert len(payload["rows"]) == 20


def test_induced_csv_columns(capsys):
    code, out = run(capsys, ["induced", "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 20
    assert set(rows[0]) >= {"orbit", "f", "dim", "m_c8", "m_q"}


def test_verify_group_suite_passes(capsys):
    code, out = run(capsys, ["verify", "--suite", "group", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(r["passed"] for r in payload["rows"])
    names = [r["name"] for r in payload["rows"]]
    assert "weyl-closure-order-384" in names
    assert "c3-quaternion-relations" in names


def test_verify_basis_suite_passes(capsys):
    code, out = run(capsys, ["verify", "--suite", "basis", "--jmax", "3",
                             "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_verify_induced_suite_passes(capsys):
    code, out = run(capsys, ["verify", "--suite", "induced", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert {r["name"] for r in payload["rows"]} == {
        "induced-sum-dim-squared-384",
        "induced-aggregate-c8-48",
        "induced-aggregate-q-48",
    }


def test_a_wrong_basis_count_reaches_the_verify_report(capsys, monkeypatch):
    # the mesh builds its table without counting; verify compares the
    # counts with the multiplicities and reports the mismatch
    real = bases._character_average

    def one_more_at_three(group, j):
        return real(group, j) + (group.name == "C2" and j == 3)

    monkeypatch.setattr(bases, "_character_average", one_more_at_three)
    code, out = run(capsys, ["verify", "--suite", "basis", "--jmax", "4", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    detail = payload["details"]["basis-c2-orthonormal-periodic"]
    assert detail["passed"] is False
    assert detail["count_by_degree"] != detail["multiplicity_by_degree"]
    assert detail["multiplicity_by_degree"]["3"] == detail["count_by_degree"]["3"] + 1
    assert payload["details"]["basis-c3-orthonormal-periodic"]["passed"] is True


def test_a_wrong_census_multiplicity_reaches_the_verify_report(capsys, monkeypatch):
    # the census prints what it counts; verify checks its sums
    real = induced.multiplicity_identity

    def one_more_for_the_trivial_rep(rep, group):
        return real(rep, group) + (rep.mu_string == "{++++}" and rep.f_string == "[4]" and group.name == "C2")

    monkeypatch.setattr(induced, "multiplicity_identity", one_more_for_the_trivial_rep)
    code, out = run(capsys, ["verify", "--suite", "induced", "--format", "json"])
    assert code == 1
    rows = {r["name"]: r for r in json.loads(out)["rows"]}
    assert rows["induced-aggregate-c8-48"] == {"name": "induced-aggregate-c8-48", "passed": False, "measured": 49}
    assert rows["induced-aggregate-q-48"]["passed"] is True
    assert rows["induced-sum-dim-squared-384"]["passed"] is True


def test_a_census_that_raises_is_one_failed_verify_row(capsys, monkeypatch):
    # the trivial rep's character is off by one at one C2 deck element, so
    # its mean over C2 is no count and irrep_census raises inside the suite
    real = induced.induced_character
    moved = deck.build_cyclic8().elements[0].element

    def off_by_one(rep, g):
        return real(rep, g) + (rep.mu_string == "{++++}" and rep.f_string == "[4]" and g == moved)

    monkeypatch.setattr(induced, "induced_character", off_by_one)
    code, out = run(capsys, ["verify", "--suite", "induced", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["rows"] == [{"name": "induced-census", "passed": False, "measured": None}]
    assert "is not a clean non-negative integer" in payload["details"]["induced-census"]


def test_verify_failure_exits_one(capsys, monkeypatch):
    # force a failing deck report through the group suite; the suite reads
    # the presentation's row off the report
    monkeypatch.setattr(cli, "verify_deck_group", lambda group: {"passed": False, "relations": True})
    code, out = run(capsys, ["verify", "--suite", "group", "--format", "json"])
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_internal_error_exits_three(capsys, monkeypatch):
    # an exception inside a subcommand is an internal error: exit 3 with
    # one line on stderr, not a traceback and not a verification failure
    def raising(*args, **kwargs):
        raise RuntimeError("kernel exploded\nsecond line")

    monkeypatch.setattr(cli, "verify_basis", raising)
    code = cli.main(["verify", "--suite", "basis", "--jmax", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == ["s3harm: internal error: RuntimeError: kernel exploded second line"]


def test_basis_row_measures_the_projector_errors(capsys, monkeypatch):
    # a projector failure must show in the row's measured value, not only
    # in its passed flag
    real = cli.verify_basis

    def failing_fix(functions, group, **kwargs):
        report = real(functions, group, **kwargs)
        block = report["projector"][max(report["projector"])]
        block["fix_max_error"] = 1.0
        report["passed"] = False
        return report

    monkeypatch.setattr(cli, "verify_basis", failing_fix)
    code, out = run(capsys, ["verify", "--suite", "basis", "--manifold", "C2", "--jmax", "2",
                             "--format", "json"])
    assert code == 1
    (row,) = json.loads(out)["rows"]
    assert row["passed"] is False
    assert row["measured"] == 1.0


def test_jmax_guard_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["multiplicity", "--manifold", "C2", "--jmax", str(cli.J_MAX_LIMIT + 1)])
    assert exc.value.code == 2
    code, out = run(capsys, ["multiplicity", "--manifold", "C2", "--jmax", str(cli.J_MAX_LIMIT),
                             "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["rows"]) == cli.J_MAX_LIMIT + 1


def test_basis_degree_guard(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["basis", "--manifold", "C2", "--j", str(cli.J_MAX_LIMIT + 1)])
    assert exc.value.code == 2
    code, out = run(capsys, ["basis", "--manifold", "C2", "--j", str(cli.J_MAX_LIMIT), "--format", "json"])
    assert code == 0
    assert json.loads(out)["count"] == bases.multiplicity_c8(cli.J_MAX_LIMIT)


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_output_is_deterministic(capsys):
    argv = ["multiplicity", "--manifold", "C3", "--jmax", "6", "--format", "json"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second
    argv = ["basis", "--manifold", "C2", "--j", "3", "--format", "json"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "mult.json"
    code, out = run(capsys, ["multiplicity", "--manifold", "C2", "--jmax", "3",
                             "--format", "json", "--output", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert [r["m"] for r in payload["rows"]] == [1, 1, 7, 11]


def test_tol_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("S3HARM_TOL", "1e-06")
    code, out = run(capsys, ["verify", "--suite", "group", "--format", "json"])
    assert code == 0
    assert json.loads(out)["tol"] == 1e-06


def test_tol_flag_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("S3HARM_TOL", "1e-06")
    code, out = run(capsys, ["verify", "--suite", "group", "--format", "json",
                             "--tol", "1e-09"])
    assert code == 0
    assert json.loads(out)["tol"] == 1e-09


def test_default_tol_and_seed(capsys):
    code, out = run(capsys, ["verify", "--suite", "group", "--format", "json"])
    payload = json.loads(out)
    assert payload["tol"] == 1e-10
    assert payload["seed"] == 42


def test_text_format_renders_table(capsys):
    code, out = run(capsys, ["multiplicity", "--manifold", "C2", "--jmax", "2"])
    assert code == 0
    assert "j" in out and "m" in out
    assert "7" in out


def assert_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    return errors


@pytest.mark.parametrize("value", ["abc", "nan", "-1", "0"])
def test_bad_tol_environment_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("S3HARM_TOL", value)
    assert_usage_error(capsys, ["verify", "--suite", "group"])


def test_tol_flag_beats_a_bad_environment_value(capsys, monkeypatch):
    # the environment is parsed only when --tol is absent
    monkeypatch.setenv("S3HARM_TOL", "abc")
    code, out = run(capsys, ["verify", "--suite", "group", "--format", "json", "--tol", "1e-09"])
    assert code == 0
    assert json.loads(out)["tol"] == 1e-09


@pytest.mark.parametrize("value", ["abc", "abc\n0"])
def test_bad_tol_environment_message_names_the_variable(capsys, monkeypatch, value):
    # one line, even for a value that holds a newline
    monkeypatch.setenv("S3HARM_TOL", value)
    (line,) = assert_usage_error(capsys, ["verify", "--suite", "group"])
    assert "S3HARM_TOL" in line


DEGREE_OPTIONS = [
    ["multiplicity", "--manifold", "C2", "--jmax"],
    ["basis", "--manifold", "C2", "--j"],
    ["verify", "--suite", "basis", "--jmax"],
]


@pytest.mark.parametrize("value", ["-1", str(cli.J_MAX_LIMIT + 1), "4.0"])
@pytest.mark.parametrize("prefix", DEGREE_OPTIONS, ids=lambda prefix: prefix[0])
def test_bad_degree_is_usage_error(capsys, monkeypatch, prefix, value):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a subcommand ran before its degree was checked")

    for name in ("cmd_multiplicity", "cmd_basis", "cmd_verify"):
        monkeypatch.setattr(cli, name, must_not_run)
    assert_usage_error(capsys, prefix + [value])


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "abc"])
def test_bad_tol_flag_is_usage_error(capsys, value):
    assert_usage_error(capsys, ["verify", "--suite", "group", "--tol", value])


@pytest.mark.parametrize("value", ["-1", "1.5", "abc"])
def test_bad_seed_is_usage_error(capsys, monkeypatch, value):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a suite ran before --seed was checked")

    monkeypatch.setattr(cli, "cmd_verify", must_not_run)
    assert_usage_error(capsys, ["verify", "--suite", "basis", "--seed", value])


@pytest.mark.parametrize("where", ["missing-directory", "is-a-directory"])
def test_unwritable_output_is_refused_before_any_suite(capsys, monkeypatch, tmp_path, where):
    target = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path

    def must_not_run(*args, **kwargs):
        raise AssertionError("a suite ran before --output was checked")

    monkeypatch.setattr(cli, "cmd_verify", must_not_run)
    assert_usage_error(capsys, ["verify", "--suite", "group", "--output", str(target)])


@pytest.mark.parametrize("where", ["missing-directory-slash", "empty"])
def test_an_output_path_with_no_file_name_is_refused_before_any_work(capsys, monkeypatch, tmp_path, where):
    target = os.path.join(str(tmp_path), "missing", "") if where == "missing-directory-slash" else ""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a suite ran before --output was checked")

    monkeypatch.setattr(cli, "cmd_verify", must_not_run)
    assert_usage_error(capsys, ["verify", "--suite", "group", "--output", target])


# one cheap call of each subcommand that has no tolerance to read
NO_TOL_CALLS = [
    ["group", "--which", "G", "--count-only"],
    ["multiplicity", "--manifold", "C2", "--jmax", "3"],
    ["basis", "--manifold", "C3", "--j", "2"],
    ["induced"],
]


@pytest.mark.parametrize("argv", NO_TOL_CALLS, ids=lambda argv: argv[0])
def test_only_verify_reads_the_tolerance_environment(capsys, monkeypatch, argv):
    _, want = run(capsys, argv)
    monkeypatch.setenv("S3HARM_TOL", "abc")
    assert run(capsys, argv) == (0, want)


@pytest.mark.parametrize("argv", NO_TOL_CALLS, ids=lambda argv: argv[0])
def test_tol_flag_outside_verify_is_usage_error(capsys, argv):
    assert_usage_error(capsys, argv + ["--tol", "1e-9"])


def test_verify_loads_no_numpy_random_ma_or_polynomial():
    # verify draws its points from the stdlib's random and builds its
    # Gauss-Legendre rule in-house, so a fresh process needs none of these.
    script = (
        "import sys\n"
        "from s3harm import cli\n"
        "code = cli.main(['verify', '--suite', 'all', '--jmax', '2'])\n"
        "print(code, *(m for m in ('numpy.random', 'numpy.ma', 'numpy.polynomial') if m in sys.modules))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines()[-1] == "0"
