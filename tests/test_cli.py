"""Exit codes, report schema, and the instance-file layer."""

import io
import json
import types

import pytest

from genmat.cli import REPORT_SCHEMA, demo_document, main
from genmat.instancefile import (
    InstanceFileError,
    build_context,
    build_exchange,
    load_document,
    resolve_prime,
    run_check,
)

QUADRIC = "instances/quadric.json"
SEGRE = "instances/segre.json"


def quadric_doc():
    with open(QUADRIC) as fh:
        return json.load(fh)


def run_json(monkeypatch, capsys, argv, doc=None):
    if doc is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# ------------------------------------------------------------- documents


def test_load_document_rejects_junk():
    with pytest.raises(InstanceFileError, match="not valid JSON"):
        load_document("{nope")
    with pytest.raises(InstanceFileError, match="JSON object"):
        load_document("[1, 2]")


@pytest.mark.parametrize(
    "text, reason",
    [
        # The decoder gives up on deep nesting with a RecursionError.
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        # and on an integer past the digit limit with a plain ValueError.
        ('{"field": {"prime": 1' + "0" * 5000 + "}}", "Exceeds the limit"),
    ],
    ids=["nested", "long-integer"],
)
def test_undecodable_documents_are_input_errors(monkeypatch, capsys, text, reason):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["check", "nn", "--json"])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith(f"error: $: not valid JSON ({reason}"), err[:200]


def test_resolve_prime_precedence():
    assert resolve_prime({"field": {"prime": 101}}, env={"GENMAT_PRIME": "7"}) == 101
    assert resolve_prime({}, env={"GENMAT_PRIME": "7"}) == 7
    assert resolve_prime({}, env={}) == 32003
    with pytest.raises(InstanceFileError, match="field.prime"):
        resolve_prime({"field": {"prime": "big"}}, env={})
    with pytest.raises(InstanceFileError, match="GENMAT_PRIME"):
        resolve_prime({}, env={"GENMAT_PRIME": "many"})
    for bad in (4, True):
        with pytest.raises(InstanceFileError, match="field.prime"):
            resolve_prime({"field": {"prime": bad}}, env={})
    with pytest.raises(InstanceFileError, match="field.prime: GENMAT_PRIME='4'"):
        resolve_prime({}, env={"GENMAT_PRIME": "4"})


@pytest.mark.parametrize(
    "prime, reason",
    [
        (318665857834031151167461, "must be prime"),
        (3317044064679887385961981, "must be below 3317044064679887385961981"),
    ],
    ids=["strong-pseudoprime-to-37", "witness-bound"],
)
def test_unproven_primes_are_input_errors(monkeypatch, capsys, prime, reason):
    doc = quadric_doc()
    doc["field"] = {"prime": prime}
    code, err = _run_failure(monkeypatch, capsys, ["check", "reduction", "--json"], doc)
    assert code == 3 and err.startswith("error: field.prime: ") and reason in err
    with pytest.raises(InstanceFileError, match="field.prime"):
        resolve_prime({}, env={"GENMAT_PRIME": str(prime)})


def test_large_primes_below_the_bound_run(monkeypatch, capsys):
    for prime in (2**61 - 1, 2**64 + 13):
        doc = quadric_doc()
        doc["field"] = {"prime": prime}
        code, report = run_json(monkeypatch, capsys, ["check", "reduction", "--json"], doc)
        assert code == 0 and report["verdicts"]["status"] == "true"


def test_build_context_locations():
    with pytest.raises(InstanceFileError, match="ring"):
        build_context({}, env={})
    with pytest.raises(InstanceFileError, match=r"ring\.vars"):
        build_context({"ring": {"vars": []}}, env={})
    with pytest.raises(InstanceFileError, match=r"ring\.relations\[0\]"):
        build_context(
            {"ring": {"vars": [{"name": "x"}], "relations": ["x + 1"]}}, env={}
        )
    # The presentation vets the grading before any relation is read.
    with pytest.raises(InstanceFileError, match="^ring: multidegrees must share one positive length$"):
        build_context(
            {
                "ring": {
                    "vars": [{"name": "x", "multidegree": [1, 0]}, {"name": "y"}],
                    "relations": ["x*y"],
                }
            },
            env={},
        )
    with pytest.raises(InstanceFileError, match=r"ring\.vars\[0\]\.multidegree"):
        build_context({"ring": {"vars": [{"name": "x", "multidegree": [True]}]}}, env={})
    with pytest.raises(InstanceFileError, match=r"ideals\[1\]\.name"):
        build_context(
            {
                "ring": {"vars": [{"name": "x"}]},
                "ideals": [
                    {"name": "m", "generators": ["x"]},
                    {"name": "m", "generators": ["x"]},
                ],
            },
            env={},
        )
    ctx = build_context(quadric_doc(), env={})
    assert ctx.prime == 32003 and set(ctx.ideals) == {"m"}


@pytest.mark.parametrize(
    "section, bad, location",
    [
        ("ring", 5, "ring.vars[0].name"),
        ("ideals", ["m"], "ideals[0].name"),
        ("handles", {"name": "target"}, "exchange.handles[0].name"),
    ],
)
@pytest.mark.parametrize("argv", [["check", "minimal-reduction"], ["exchange", "--seed", "1"]])
def test_non_string_names_are_input_errors(monkeypatch, capsys, section, bad, location, argv):
    doc = quadric_doc()
    named = {
        "ring": doc["ring"]["vars"][0],
        "ideals": doc["ideals"][0],
        "handles": doc["exchange"]["handles"][0],
    }[section]
    named["name"] = bad
    if section == "handles" and argv[0] == "check":
        # check reads no exchange section.
        code, report = run_json(monkeypatch, capsys, argv + ["--json"], doc)
        assert code == 0 and report["verdicts"]["status"] == "true"
        return
    code, err = _run_failure(monkeypatch, capsys, argv + ["--json"], doc)
    assert (code, err) == (3, f"error: {location}: must be a string")


CHECK = ["check", "reduction", "--json"]
EXCHANGE = ["exchange", "--seed", "1", "--json"]


@pytest.mark.parametrize(
    "argv, edit, line",
    [
        (CHECK, lambda d: d.update(field=5), "field: must be an object"),
        (
            CHECK,
            lambda d: d["ring"].update(relations=[5]),
            "ring.relations[0]: polynomial must be a string",
        ),
        (
            CHECK,
            lambda d: d["ideals"][0].pop("generators"),
            "ideals[0]: must be an object with name and generators",
        ),
        (
            CHECK,
            lambda d: d["ring"].update(relations="x*y - z*w"),
            "ring.relations: must be a list of polynomial strings",
        ),
        (CHECK, lambda d: d.update(ideals={}), "ideals: must be a list"),
        (
            CHECK,
            lambda d: d["check"].update(ideal="q"),
            "check.ideal: unknown ideal 'q'; defined: ['m']",
        ),
        (
            CHECK,
            lambda d: d["check"].update(ideal=5),
            "check.ideal: ideal reference must be a name or a list",
        ),
        (
            ["check", "complete-reduction-ideals", "--json"],
            None,
            "check.ideals: must be a nonempty list",
        ),
        (
            ["check", "complete-reduction-ring", "--json"],
            None,
            "check.matrix: must be a nonempty list of rows",
        ),
        (CHECK, lambda d: d.pop("check"), "check: missing or not an object"),
        (CHECK, lambda d: d["check"].pop("candidate"), "check.candidate: missing"),
        (CHECK, lambda d: d["check"].pop("ideal"), "check.ideal: missing"),
        (EXCHANGE, lambda d: d.pop("exchange"), "exchange: missing or not an object"),
        (
            EXCHANGE,
            lambda d: d["exchange"].update(kind="bogus"),
            "exchange.kind: must be one of ('nn', 'minred', 'complete-reduction-ring', "
            "'complete-reduction-ideals'), got 'bogus'",
        ),
        (
            EXCHANGE,
            lambda d: d["exchange"].update(handles=[]),
            "exchange.handles: must be a nonempty list",
        ),
        (
            EXCHANGE,
            lambda d: d["exchange"].update(start=[]),
            "exchange.start: must be a nonempty list",
        ),
        (EXCHANGE, lambda d: d["exchange"].update(traps=[]), "exchange.traps: must be an object"),
        (
            EXCHANGE,
            lambda d: d["exchange"]["handles"].append({"name": "target", "forms": ["x"]}),
            "exchange.handles[1].name: duplicate handle 'target'",
        ),
        (EXCHANGE, lambda d: d["exchange"].pop("ideal"), "exchange.ideal: missing"),
        (["check", "reduction"], None, "$: pass a file, or --json to read stdin"),
    ],
    ids=[
        "field",
        "relation-not-a-string",
        "ideal-without-generators",
        "relations-not-a-list",
        "ideals-not-a-list",
        "unknown-ideal",
        "ideal-reference",
        "check-ideals",
        "check-matrix",
        "check-missing",
        "candidate-missing",
        "check-ideal-missing",
        "exchange-missing",
        "exchange-kind",
        "exchange-handles",
        "exchange-start",
        "exchange-traps",
        "duplicate-handle",
        "exchange-ideal-missing",
        "no-file-no-json",
    ],
)
def test_broken_document_fields_are_input_errors(monkeypatch, capsys, argv, edit, line):
    doc = quadric_doc()
    if edit is not None:
        edit(doc)
    code, err = _run_failure(monkeypatch, capsys, argv, doc if "--json" in argv else None)
    assert (code, err) == (3, f"error: {line}")


def test_run_check_refuses_an_unknown_task():
    # argparse's choices stop a bogus task before it reaches run_check.
    ctx = build_context(quadric_doc(), env={})
    with pytest.raises(InstanceFileError) as refused:
        run_check(ctx, "bogus")
    assert str(refused.value) == (
        "check: unknown task 'bogus'; have ('nn', 'hsop', 'reduction', "
        "'minimal-reduction', 'complete-reduction-ring', 'complete-reduction-ideals')"
    )


def test_exchange_defaults_to_the_target_handle(monkeypatch, capsys):
    # Among several handles and no --from, the one named "target" is drawn.
    doc = quadric_doc()
    doc["exchange"]["handles"].insert(0, {"name": "other", "forms": ["x", "y", "z", "w"]})
    code, report = run_json(monkeypatch, capsys, EXCHANGE, doc)
    assert code == 0 and report["inputs"]["flags"]["from"] == "target"
    (path,) = report["certificates"]
    assert path["handle"] == "target" and {s["handle"] for s in path["steps"]} == {"target"}


# ----------------------------------------------------------------- check


def test_check_exit_codes(monkeypatch, capsys):
    doc = quadric_doc()
    code, report = run_json(monkeypatch, capsys, ["check", "minimal-reduction", "--json"], doc)
    assert code == 0 and report["verdicts"]["status"] == "true"
    assert report["schema"] == REPORT_SCHEMA

    doc = quadric_doc()
    doc["check"]["candidate"] = ["x", "z", "w"]
    code, report = run_json(monkeypatch, capsys, ["check", "minimal-reduction", "--json"], doc)
    assert code == 1 and report["verdicts"]["status"] == "false"

    doc = quadric_doc()
    doc["check"]["candidate"] = ["x", "q", "w"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["check", "minimal-reduction", "--json"])
    assert code == 3
    assert "unknown variable" in capsys.readouterr().err


def test_check_exponent_limit_exit_code(monkeypatch, capsys):
    doc = quadric_doc()
    doc["ring"]["relations"] = ["x^32768*y - z^32768*w"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["check", "minimal-reduction", "--json"]) == 3
    assert "limit 32767" in capsys.readouterr().err


def test_check_wrong_count_exit_codes(monkeypatch, capsys):
    # A wrong count is a "false" for the minimal-reduction predicate but
    # an input error for the nn check.
    doc = quadric_doc()
    doc["check"]["candidate"] = ["x", "y"]
    code, report = run_json(monkeypatch, capsys, ["check", "minimal-reduction", "--json"], doc)
    assert code == 1 and report["verdicts"]["status"] == "false"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["check", "nn", "--json"]) == 3
    assert "needs 3 elements, got 2" in capsys.readouterr().err


def test_check_dependent_candidate_outside_the_ideal_is_refused(monkeypatch, capsys):
    # (x, y) has analytic spread 2, so (z, 2*z) has the right count; it
    # is dependent, but z lies outside (x, y), and a generator outside
    # the ideal is refused whatever else is wrong with the candidate.
    doc = quadric_doc()
    doc["check"]["ideal"] = ["x", "y"]
    doc["check"]["candidate"] = ["z", "2*z"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["check", "minimal-reduction", "--json"]) == 3
    assert "(z) does not lie in the ideal" in capsys.readouterr().err


def _inconclusive_doc():
    # (x^4, y^4) reduces (x^4, x^3*y, x*y^3, y^4) only at power 2.
    return {
        "ring": {"vars": [{"name": "x"}, {"name": "y"}]},
        "check": {
            "ideal": ["x^4", "x^3*y", "x*y^3", "y^4"],
            "candidate": ["x^4", "y^4"],
            "n_max": 1,
        },
    }


def test_check_inconclusive_exit(monkeypatch, capsys):
    doc = _inconclusive_doc()
    code, report = run_json(monkeypatch, capsys, ["check", "reduction", "--json"], doc)
    assert code == 2 and report["verdicts"]["status"] == "inconclusive"
    assert report["verdicts"]["detail"]["witness"] == [["fiber", True]]
    # (x^2, y^2) inside (x, y) is provably no reduction.
    old = {
        "ring": {"vars": [{"name": "x"}, {"name": "y"}]},
        "check": {"ideal": ["x", "y"], "candidate": ["x^2", "y^2"], "n_max": 2},
    }
    code, report = run_json(monkeypatch, capsys, ["check", "reduction", "--json"], old)
    assert code == 1 and report["verdicts"]["status"] == "false"
    # JSON true is not the integer 1.
    doc["check"]["n_max"] = True
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["check", "reduction", "--json"]) == 3
    assert "check.n_max: must be a positive integer" in capsys.readouterr().err


def test_check_reports_the_deciding_witness(monkeypatch, capsys):
    code, report = run_json(
        monkeypatch, capsys, ["check", "reduction", "--json"], quadric_doc()
    )
    assert code == 0
    assert report["verdicts"]["detail"]["witness"] == [["fiber", True], ["power", 1, True, None]]


def test_failed_power_certificate_exit(monkeypatch, capsys):
    # The least power here is 2; a claimed 1 fails its certificate.
    doc = {
        "ring": {"vars": [{"name": "x"}, {"name": "y"}]},
        "check": {"ideal": ["x^4", "x^3*y", "x*y^3", "y^4"], "candidate": ["x^4", "y^4"]},
    }
    monkeypatch.setattr("genmat.algebra.fiber_reduction_test", lambda J, I: 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["check", "reduction", "--json"]) == 5
    assert "error: the fiber ring names power 1, but" in capsys.readouterr().err


def test_check_higher_degree_candidate_is_no(monkeypatch, capsys):
    doc = quadric_doc()
    doc["check"]["candidate"] = ["x^2", "y^2", "z^2"]
    for task in ("reduction", "minimal-reduction"):
        code, report = run_json(monkeypatch, capsys, ["check", task, "--json"], doc)
        assert code == 1 and report["verdicts"]["status"] == "false"


def test_check_all_tasks_on_shipped_files(capsys):
    assert main(["check", "nn", QUADRIC]) == 0
    assert main(["check", "hsop", QUADRIC]) == 0
    assert main(["check", "reduction", QUADRIC]) == 0
    assert main(["check", "complete-reduction-ring", SEGRE]) == 0
    capsys.readouterr()


def _ideal_tuple_doc():
    return {
        "ring": {"vars": [{"name": "a"}, {"name": "b"}]},
        "ideals": [{"name": "I", "generators": ["a", "b"]}],
        "check": {"ideals": ["I", "I"], "matrix": [["a", "b"], ["a", "b"]]},
    }


def test_check_ideal_tuple_task(monkeypatch, capsys):
    code, report = run_json(
        monkeypatch, capsys, ["check", "complete-reduction-ideals", "--json"], _ideal_tuple_doc()
    )
    assert code == 0 and report["verdicts"]["detail"]["power"] == 1
    assert report["verdicts"]["detail"]["witness"][0] == ["fiber", True]


def test_check_zero_width_matrix_is_an_input_error(monkeypatch, capsys):
    doc = {
        "ring": {"vars": [{"name": "a"}, {"name": "b"}]},
        "ideals": [{"name": "I", "generators": ["a", "b"]}],
        "check": {"ideals": ["I"], "matrix": [[]]},
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["check", "complete-reduction-ideals", "--json"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: check: complete reduction of this ideal tuple needs 2 columns, got 0"
    ]


def test_check_missing_file(capsys):
    assert main(["check", "nn", "instances/missing.json"]) == 3
    assert "cannot read" in capsys.readouterr().err


def _cube_doc():
    # (x^3, y^3) reduces (x^3, y^3, x*y^2) only at power 2, so a power
    # bound of 1 leaves every verdict on it open.
    return {
        "ring": {"vars": [{"name": "x"}, {"name": "y"}]},
        "ideals": [{"name": "m", "generators": ["x^3", "y^3", "x*y^2"]}],
        "check": {"ideal": "m", "candidate": ["x^3", "y^3"], "n_max": 1},
        "exchange": {
            "kind": "minred",
            "ideal": "m",
            "start": ["x^3", "y^3"],
            "n_max": 1,
            "handles": [{"name": "m", "forms": ["x^3", "y^3", "x*y^2"]}],
        },
    }


def test_check_minimal_reduction_inconclusive_exit(monkeypatch, capsys):
    code, report = run_json(
        monkeypatch, capsys, ["check", "minimal-reduction", "--json"], _cube_doc()
    )
    assert code == 2 and report["verdicts"]["status"] == "inconclusive"
    detail = report["verdicts"]["detail"]
    assert detail["verdict"] == "reduction test inconclusive after power bound 1"


# -------------------------------------------------------------- exchange


def test_exchange_step_deterministic(monkeypatch, capsys):
    argv = ["exchange", QUADRIC, "--remove", "x + y", "--seed", "42", "--json"]
    code, first = run_json(monkeypatch, capsys, argv)
    code2, second = run_json(monkeypatch, capsys, argv)
    assert code == code2 == 0
    cert = first["certificates"][0]
    assert cert == second["certificates"][0]
    assert cert["attempts"] >= 1 and cert["removed"] == "x + y"
    assert first["seed"] == 42 and first["verdicts"]["mode"] == "step"


def test_exchange_generates_and_prints_seed(capsys):
    code = main(["exchange", QUADRIC, "--remove", "x + y"])
    out = capsys.readouterr().out
    assert code == 0
    seed_lines = [l for l in out.splitlines() if l.startswith("seed: ")]
    assert len(seed_lines) == 1 and int(seed_lines[0].split()[1]) >= 0


def test_exchange_statistical(monkeypatch, capsys):
    argv = [
        "exchange", QUADRIC, "--remove", "x + y", "--trials", "40",
        "--seed", "9", "--json",
    ]
    code, report = run_json(monkeypatch, capsys, argv)
    assert code == 0
    assert report["verdicts"]["mode"] == "statistical"
    assert report["verdicts"]["rate"] >= 0.9


def test_exchange_path_mode(monkeypatch, capsys):
    argv = ["exchange", SEGRE, "--from", "crossed", "--variant", "vector",
            "--seed", "3", "--json"]
    code, report = run_json(monkeypatch, capsys, argv)
    assert code == 0
    path = report["certificates"][0]
    assert report["verdicts"]["mode"] == "path"
    assert report["verdicts"]["steps"] == len(path["steps"]) <= 3
    assert len(path["final"]) == 3


def test_exchange_exhausted_exit(monkeypatch, capsys):
    doc = quadric_doc()
    doc["exchange"]["handles"].append({"name": "hopeless", "forms": ["z", "w"]})
    argv = ["exchange", "--json", "--from", "hopeless", "--remove", "x + y",
            "--seed", "1", "--max-tries", "5"]
    code, report = run_json(monkeypatch, capsys, argv, doc)
    assert code == 4
    assert report["verdicts"]["mode"] == "exhausted"
    assert len(report["verdicts"]["rejected"]) == 5


def test_exchange_on_an_open_start_exits_inconclusive(monkeypatch, capsys):
    # The start check itself cannot be decided within the power bound.
    argv = ["exchange", "--json", "--remove", "x^3", "--seed", "1"]
    code, err = _run_failure(monkeypatch, capsys, argv, _cube_doc())
    assert (code, err) == (2, "inconclusive: reduction test inconclusive after power bound 1")


def _nn_doc():
    doc = quadric_doc()
    del doc["exchange"]["ideal"]
    doc["exchange"]["kind"] = "nn"
    return doc


def _ideal_tuple_exchange_doc():
    doc = _ideal_tuple_doc()
    doc["exchange"] = {
        "kind": "complete-reduction-ideals",
        "ideals": ["I", "I"],
        "start": [["a", "a"], ["b", "b"]],
        "handles": [{"name": "ambient", "blocks": [["a", "b"], ["a", "b"]]}],
    }
    return doc


@pytest.mark.parametrize(
    "make, removed, instance",
    [
        (_nn_doc, "x + y", "noether-normalization"),
        (_ideal_tuple_exchange_doc, "0", "complete-reduction-ideals"),
    ],
    ids=["nn", "complete-reduction-ideals"],
)
def test_exchange_step_on_the_other_kinds(monkeypatch, capsys, make, removed, instance):
    argv = ["exchange", "--json", "--remove", removed, "--seed", "1"]
    code, report = run_json(monkeypatch, capsys, argv, make())
    assert code == 0 and report["verdicts"]["mode"] == "step"
    cert = report["certificates"][0]
    assert cert["instance"] == instance
    assert cert["basis_after"][1:] == cert["basis_before"][1:]
    assert cert["basis_after"][0] == cert["inserted"] != cert["basis_before"][0]


def test_exchange_flag_errors(monkeypatch, capsys):
    assert main(["exchange", QUADRIC, "--remove", "x + y", "--trials", "0",
                 "--seed", "1"]) == 3
    assert main(["exchange", QUADRIC, "--trials", "10", "--seed", "1"]) == 3
    assert main(["exchange", QUADRIC, "--remove", "x", "--seed", "1"]) == 3
    assert main(["exchange", QUADRIC, "--from", "nope", "--seed", "1"]) == 3
    assert main(["exchange", QUADRIC, "--from", "", "--seed", "1"]) == 3
    assert main(["exchange", SEGRE, "--seed", "1"]) == 3  # two handles, no --from
    assert main(["exchange", SEGRE, "--from", "ambient", "--remove", "x1",
                 "--seed", "1"]) == 3
    assert main(["exchange", SEGRE, "--from", "ambient", "--remove", "7",
                 "--seed", "1"]) == 3
    # Path mode refuses an empty budget up front, as step mode does.
    assert main(["exchange", SEGRE, "--from", "ambient", "--max-tries", "0",
                 "--seed", "1"]) == 3
    assert "max_tries must be at least 1" in capsys.readouterr().err


def test_exchange_column_remove_by_index(monkeypatch, capsys):
    argv = ["exchange", SEGRE, "--from", "ambient", "--remove", "0",
            "--seed", "2", "--json"]
    code, report = run_json(monkeypatch, capsys, argv)
    assert code == 0
    assert report["certificates"][0]["removed"] == ["x1", "y1"]


def test_exchange_start_must_verify(monkeypatch, capsys):
    doc = quadric_doc()
    doc["exchange"]["start"] = ["x", "z", "w"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["exchange", "--json", "--seed", "1"])
    assert code == 3
    assert "fails the basis oracle" in capsys.readouterr().err


def test_exchange_wrong_degree_start_is_an_input_error(monkeypatch, capsys):
    doc = quadric_doc()
    doc["exchange"]["start"] = ["x^2", "y^2", "z^2"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["exchange", "--json", "--n-max", "2", "--seed", "1"])
    assert code == 3
    assert "start set fails the basis oracle" in capsys.readouterr().err


def test_exchange_power_bound_validated(monkeypatch, capsys):
    for bad in (0, "abc", True):
        doc = quadric_doc()
        doc["exchange"]["n_max"] = bad
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(["exchange", "--json", "--seed", "1"]) == 3
        assert "exchange.n_max: must be a positive integer" in capsys.readouterr().err
    assert main(["exchange", QUADRIC, "--n-max", "0", "--seed", "1"]) == 3
    assert "--n-max: must be a positive integer" in capsys.readouterr().err


def _run_failure(monkeypatch, capsys, argv, doc=None):
    """Exit code and the one stderr line of a run that gave up."""
    if doc is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return code, captured.err.strip()


def test_zero_combination_sampler_exit(monkeypatch, capsys):
    monkeypatch.setattr(
        "genmat.instances.random_linear_combination",
        lambda basis, rng, var_degrees=None: (basis[0].ring.zero(), ()),
    )
    argv = ["exchange", QUADRIC, "--remove", "x + y", "--seed", "1"]
    code, err = _run_failure(monkeypatch, capsys, argv)
    assert (code, err) == (5, "error: sampler kept drawing zero combinations")


def test_degenerate_column_sampler_exit(monkeypatch, capsys):
    monkeypatch.setattr("genmat.polyring.PrimeField.sample", lambda self, rng: 0)
    argv = ["exchange", SEGRE, "--from", "ambient", "--remove", "0", "--seed", "1"]
    code, err = _run_failure(monkeypatch, capsys, argv)
    assert (code, err) == (5, "error: handle 'ambient' kept drawing degenerate columns")


def test_path_ending_on_rejected_set_exit(monkeypatch, capsys):
    # The start already lies in "ambient", so the path takes no step and
    # only the final verification runs.
    monkeypatch.setattr("genmat.matroid.GenericMatroidInstance.verify", lambda self, b: False)
    argv = ["exchange", SEGRE, "--from", "ambient", "--seed", "1"]
    code, err = _run_failure(monkeypatch, capsys, argv)
    assert (code, err) == (5, "error: path ended on a set the oracle rejects")


def test_path_longer_than_basis_exit(monkeypatch, capsys):
    # Steps that never move the basis into the handle.
    monkeypatch.setattr(
        "genmat.matroid.exchange_step",
        lambda inst, current, *args, **kwargs: types.SimpleNamespace(basis_after=current),
    )
    argv = ["exchange", QUADRIC, "--from", "target", "--seed", "1"]
    code, err = _run_failure(monkeypatch, capsys, argv)
    assert (code, err) == (5, "error: exchange path exceeded the basis size")


# The full --json report and the plain-text stdout of fixed-seed runs,
# timing aside.  A change to the exchange, check or report layers that
# keeps behaviour keeps these byte for byte.
GOLDEN = "tests/golden_reports.json"


def _hopeless_doc():
    doc = quadric_doc()
    doc["exchange"]["handles"].append({"name": "hopeless", "forms": ["z", "w"]})
    return doc


GOLDEN_RUNS = {
    "quadric-step": (["exchange", QUADRIC, "--remove", "x + y", "--seed", "42", "--json"], None),
    "quadric-path": (["exchange", QUADRIC, "--seed", "7", "--json"], None),
    "quadric-statistical": (
        ["exchange", QUADRIC, "--remove", "x + y", "--trials", "40", "--seed", "9", "--json"],
        None,
    ),
    "segre-path": (
        ["exchange", SEGRE, "--from", "crossed", "--variant", "vector", "--seed", "3", "--json"],
        None,
    ),
    "quadric-exhausted": (
        ["exchange", "--json", "--from", "hopeless", "--remove", "x + y",
         "--seed", "1", "--max-tries", "5"],
        _hopeless_doc,
    ),
    "demo": (["demo", "--seed", "9", "--trials", "20", "--json"], None),
    **{
        f"check-{task}": (["check", task, QUADRIC, "--json"], None)
        for task in ("nn", "hsop", "reduction", "minimal-reduction")
    },
    "check-complete-reduction-ring": (["check", "complete-reduction-ring", SEGRE, "--json"], None),
    "check-complete-reduction-ideals": (
        ["check", "complete-reduction-ideals", "--json"],
        _ideal_tuple_doc,
    ),
    "check-inconclusive": (["check", "reduction", "--json"], _inconclusive_doc),
}


def _golden_report(monkeypatch, capsys, tmp_path, name):
    monkeypatch.delenv("GENMAT_PRIME", raising=False)
    argv, doc = GOLDEN_RUNS[name]
    code, report = run_json(monkeypatch, capsys, argv, doc() if doc else None)
    del report["timing"]
    # The same run in text form reads its document from a file.
    text_argv = [a for a in argv if a != "--json"]
    if doc:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc()))
        text_argv.append(str(path))
    assert main(text_argv) == code
    return {"exit": code, "report": report, "text": capsys.readouterr().out}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_report(monkeypatch, capsys, tmp_path, name):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert _golden_report(monkeypatch, capsys, tmp_path, name) == golden[name]


def test_readme_example_document():
    with open("README.md") as fh:
        readme = fh.read()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    ctx = build_context(load_document(block), env={})
    setup = build_exchange(ctx)
    assert setup.instance.rank == 3 and set(setup.instance.traps) == {"x", "y", "z+w"}


def test_report_round_trip(monkeypatch, capsys):
    # The inputs echo re-runs to the same verdict.
    doc = quadric_doc()
    code, report = run_json(monkeypatch, capsys, ["check", "minimal-reduction", "--json"], doc)
    echoed = report["inputs"]["document"]
    code2, report2 = run_json(monkeypatch, capsys, ["check", "minimal-reduction", "--json"], echoed)
    assert code == code2 == 0
    assert report["verdicts"] == report2["verdicts"]


def test_env_prime_override(monkeypatch, capsys):
    doc = {
        "ring": {"vars": [{"name": "x"}, {"name": "y"}]},
        "check": {"candidate": ["x", "y"]},
    }
    monkeypatch.setenv("GENMAT_PRIME", "101")
    code, report = run_json(monkeypatch, capsys, ["check", "nn", "--json"], doc)
    assert code == 0 and report["verdicts"]["status"] == "true"
    # the echo bakes the resolved prime in, so replays ignore the env
    assert report["inputs"]["document"]["field"]["prime"] == 101
    monkeypatch.setenv("GENMAT_PRIME", "not-a-number")
    code, _ = run_json(monkeypatch, capsys, ["check", "nn", "--json"], doc)
    assert code == 3


# ------------------------------------------------------------------ demo


def test_demo_document_is_the_shipped_quadric():
    # The walkthrough writes its instance out itself; it must stay the file.
    assert demo_document(32003) == quadric_doc()


def test_demo_runs_and_verdicts(monkeypatch, capsys):
    code, report = run_json(monkeypatch, capsys, ["demo", "--seed", "5", "--trials", "30", "--json"])
    assert code == 0
    v = report["verdicts"]
    assert v["all_expected"] is True
    assert [row["minimal_reduction"] for row in v["candidates"]] == [
        True, True, False, False, False,
    ]
    assert v["traps_rejected"] == ["x", "y", "z + w"]
    assert v["rate"] >= 0.9
    assert len(report["certificates"]) == 2


def test_demo_small_prime(monkeypatch, capsys):
    code, report = run_json(
        monkeypatch, capsys, ["demo", "--prime", "101", "--seed", "8", "--trials", "30", "--json"]
    )
    assert code == 0
    assert report["verdicts"]["all_expected"] is True


def test_demo_deterministic(monkeypatch, capsys):
    argv = ["demo", "--seed", "12", "--trials", "20", "--json"]
    _, a = run_json(monkeypatch, capsys, argv)
    _, b = run_json(monkeypatch, capsys, argv)
    a["timing"] = b["timing"] = None
    assert a == b


def test_demo_narrative(capsys):
    code = main(["demo", "--seed", "4", "--trials", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed: 4" in out
    assert "(x, z, w): no" in out
    assert "rejected" in out
