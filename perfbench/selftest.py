#!/usr/bin/env python3
"""Self-test of the benchmark's checker and trace arithmetic.

    python3 perfbench/selftest.py

Needs neither s3harm nor numpy.  Builds small payloads in memory, requires
the good ones to pass and every corrupted one (wrong count, passed false,
an error above tol, a missing row), a non-zero exit and a traceback to
count as failures.  Then checks self time on a synthetic span tree, the
per-layer arithmetic on a synthetic trace document and the tail
percentile.  Prints one line per case and exits 1 if any case is wrong.
"""

from __future__ import annotations

import copy
import json
import sys

import checks
import run
import tracing

FIXTURE = checks.load_fixture()
RESULTS = []


def case(name: str, got, want) -> None:
    ok = got == want
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: got {got!r}, want {want!r}")


def verdict(checker, stdout: str, code: int = 0, stderr: str = "", ctx=None) -> bool:
    ctx = ctx or checks.PassContext(fixture=FIXTURE, seed=7)
    return checks.judge(checker, code, stdout, stderr, ctx)[0]


def verify_all_payload(j_max: int = 2) -> dict:
    rows = []
    for suite in ("group", "basis", "induced"):
        for name in FIXTURE["verify_rows"][suite]:
            rows.append({"name": name, "passed": True, "measured": FIXTURE["verify_measured"].get(name, 1e-15)})
    details = {}
    for manifold, key in (("C2", "basis-c2-orthonormal-periodic"), ("C3", "basis-c3-orthonormal-periodic")):
        table = FIXTURE["multiplicity"][manifold]
        counts = {str(j): table[j] for j in range(j_max + 1) if table[j]}
        details[key] = {
            "manifold": manifold,
            "count_by_degree": counts,
            "multiplicity_by_degree": dict(counts),
            "gram_max_error": 2e-14,
            "periodicity_max_error": 5e-14,
            "projector": {j: {"rank": c, "expected_rank": c, "fix_max_error": 1e-16} for j, c in counts.items()},
            "passed": True,
        }
    details["deck-c2-structure"] = {"pair_action_max_error": 4e-16, "passed": True}
    return {"schema": "s3harm/1", "suite": "all", "seed": 7, "tol": 1e-10, "jmax": j_max,
            "passed": True, "rows": rows, "details": details}


def test_verify_json() -> None:
    check = checks.verify_json("all", 2)
    good = verify_all_payload()
    case("verify json: good payload passes", verdict(check, json.dumps(good)), True)
    errors = checks.judge(check, 0, json.dumps(good), "", checks.PassContext(FIXTURE, 7))[2]
    case("verify json: largest error found", max(errors), 5e-14)

    additive = copy.deepcopy(good)
    for row in additive["rows"]:
        row.update({"elapsed_s": 0.1, "margin": 1e-10, "size": {"functions": 3}})
    additive["details"]["basis-c2-orthonormal-periodic"]["timing"] = {"elapsed_s": 1.0}
    case("verify json: additive fields still pass", verdict(check, json.dumps(additive)), True)

    corruptions = {
        "wrong count": lambda p: p["details"]["basis-c2-orthonormal-periodic"]["count_by_degree"].update({"2": 6}),
        "wrong rank": lambda p: p["details"]["basis-c3-orthonormal-periodic"]["projector"]["2"].update({"rank": 9}),
        "passed false": lambda p: p.update({"passed": False}),
        "row passed false": lambda p: p["rows"][2].update({"passed": False}),
        "error above tol": lambda p: p["details"]["basis-c2-orthonormal-periodic"].update({"gram_max_error": 3e-9}),
        "nan error": lambda p: p["details"]["deck-c2-structure"].update({"pair_action_max_error": float("nan")}),
        "missing row": lambda p: p["rows"].pop(0),
        "wrong closure order": lambda p: p["rows"][0].update({"measured": 383}),
        "wrong seed": lambda p: p.update({"seed": 8}),
    }
    for name, corrupt in corruptions.items():
        bad = copy.deepcopy(good)
        corrupt(bad)
        case(f"verify json: {name} fails", verdict(check, json.dumps(bad)), False)
    case("verify json: non-zero exit fails", verdict(check, json.dumps(good), code=1), False)
    traceback = 'Traceback (most recent call last):\n  File "x", line 1\nValueError: boom\n'
    case("verify json: traceback fails", verdict(check, json.dumps(good), stderr=traceback), False)
    case("verify json: truncated output fails", verdict(check, json.dumps(good)[:-20]), False)


VERIFY_GROUP_TEXT = """suite: group
seed: 7
tol: 1e-10
jmax: 4
passed: true
name                                    passed  measured
weyl-closure-order-384                  true    384
rotation-subgroup-order-48              true    48
deck-c2-structure                       true    4.440892098500626e-16
c2-generator-fourth-power-is-inversion  true    None
deck-c3-structure                       true    2.220446049250313e-16
c3-quaternion-relations                 true    None
"""


def test_text_and_csv() -> None:
    check = checks.verify_text("group")
    case("verify text: good payload passes", verdict(check, VERIFY_GROUP_TEXT), True)
    case("verify text: passed false fails", verdict(check, VERIFY_GROUP_TEXT.replace("passed: true", "passed: false")), False)
    case("verify text: error above tol fails", verdict(check, VERIFY_GROUP_TEXT.replace("2.220446049250313e-16", "2.2e-09")), False)
    case("verify text: wrong order fails", verdict(check, VERIFY_GROUP_TEXT.replace("true    48\n", "true    47\n")), False)

    mult_rows = "\n".join(f"{j}   {m}" for j, m in enumerate(FIXTURE["multiplicity"]["C2"]))
    mult = f"manifold: C2\nj   m\n{mult_rows}\n"
    case("multiplicity: frozen table passes", verdict(checks.multiplicity_text("C2", 8), mult), True)
    case("multiplicity: wrong count fails", verdict(checks.multiplicity_text("C2", 8), mult.replace("\n8   77", "\n8   76")), False)

    ctx = checks.PassContext(fixture=FIXTURE, seed=7, multiplicity={"C3": [0] * 20 + [451]})
    header = "manifold,j,m1,m2,kind,terms,norm_factor\n"
    row = 'C3,20,0,0,single-term,"[{""im"": 0.0, ""m1p"": 0, ""m2p"": 0, ""re"": 1.0}]",0.72\n'
    case("basis csv: count equal to multiplicity passes", verdict(checks.basis_csv("C3", 20), header + row * 451, ctx=ctx), True)
    case("basis csv: count off by one fails", verdict(checks.basis_csv("C3", 20), header + row * 450, ctx=ctx), False)

    census = "orbit,f,dim,m_c8,m_q\n" + "x,[4],1,1,1\n" * 20
    case("induced csv: wrong sums fail", verdict(checks.induced_csv(), census), False)


def test_highdeg() -> None:
    ctx = checks.PassContext(fixture=FIXTURE, seed=7)
    rec = {"j": 20, "call_s": 1.0, "c8": {"route_diff": 1e-14, "rank": 431, "multiplicity": 431},
           "q": {"route_diff": 1e-14, "rank": 451, "multiplicity": 451},
           "unitarity_err": 3e-11, "homomorphism_err": 3e-11, "points": 6, "lift_pairs": 43}
    good = json.dumps({"degrees": [rec]})
    judged = checks.judge_highdeg(0, good, "", ctx, (20,))
    case("highdeg: good record passes", [r[0] for r in judged], [True])
    bad = copy.deepcopy(rec)
    bad["c8"]["rank"] = 430
    case("highdeg: rank off fails", checks.judge_highdeg(0, json.dumps({"degrees": [bad]}), "", ctx, (20,))[0][0], False)
    bad = copy.deepcopy(rec)
    bad["unitarity_err"] = 2e-10
    case("highdeg: error above tol fails", checks.judge_highdeg(0, json.dumps({"degrees": [bad]}), "", ctx, (20,))[0][0], False)
    case("highdeg: crash fails every degree",
         [r[0] for r in checks.judge_highdeg(-9, "", "", ctx, (16, 18, 20))], [False, False, False])
    case("highdeg: c8 recursion value at j=20", checks.c8_multiplicity(20, FIXTURE["multiplicity"]["C2"]), 431)


def _span(i, name, start, end, parent):
    return {"id": i, "name": name, "layer": name.split(".")[0], "start": start, "end": end,
            "parent": parent, "run": "t", "attrs": {}}


def test_trace_arithmetic() -> None:
    spans = [
        _span(0, "cli.main", 0.0, 10.0, None),
        _span(1, "cli.cmd_verify", 1.0, 3.0, 0),
        _span(2, "bases.verify_basis", 2.0, 5.0, 0),  # overlaps span 1
        _span(3, "bases.gram_matrix", 8.0, 12.0, 0),  # runs past its parent
        _span(4, "groupcore.closure", 1.5, 2.0, 1),
    ]
    selfs = tracing.self_times(spans)
    got = {k: round(v, 12) for k, v in selfs.items()}
    case("self time on a synthetic tree", got, {0: 4.0, 1: 1.5, 2: 3.0, 3: 4.0, 4: 0.5})

    spans = [
        _span(0, "cli.main", 0.0, 10.0, None),
        _span(1, "cli.cmd_verify", 0.5, 9.5, 0),
        _span(2, "bases.verify_basis", 1.0, 9.0, 1),
        _span(3, "bases.gram_matrix", 1.0, 6.0, 2),
        _span(4, "wigner.euler_quadrature", 1.0, 1.5, 3),
        _span(5, "bases.projector_c8", 6.0, 7.0, 2),
    ]
    spans[3]["attrs"] = {"functions": 10}
    spans[4]["attrs"] = {"nodes": 100}
    spans[5]["attrs"] = {"j": 2}
    doc = {"import_s": 0.2, "spans": spans, "sums": {}, "maxima": {}, "busy": {"bases": 8.0},
           "counters": {"wigner.wigner_entry": {"calls": 5, "busy_s": 4.0}},
           "caches": {"deck.build": {"hits": 3, "calls": 4}, "wigner.terms": {"hits": 0, "calls": 0}}}
    m, bases = tracing.layer_metrics([doc])
    picked = {k: m[k] for k in ("cli.calls", "cli.main_self_s", "bases.verify_self_s", "bases.gram_nodes",
                                "bases.gram_bytes", "bases.projector_bytes", "wigner.entry_calls",
                                "deck.build_cache_hit_ratio")}
    case("per-layer metrics from a synthetic document", picked, {
        "cli.calls": 1, "cli.main_self_s": 1.0, "bases.verify_self_s": 2.0, "bases.gram_nodes": 100,
        "bases.gram_bytes": 10 * 100 * 32, "bases.projector_bytes": 625 * 16, "wigner.entry_calls": 5,
        "deck.build_cache_hit_ratio": 0.75})
    case("ratio base is reported", bases["deck.build_cache_hit_ratio"], 4)


def test_statistics() -> None:
    case("tail of 120 samples has ten beyond", run.tail([float(i) for i in range(120)]), (109.0, 100.0 * 110 / 120, 10))
    case("tail of 40 samples has four beyond", run.tail([float(i) for i in range(40)]), (35.0, 90.0, 4))
    case("tail of 9 samples has one beyond", run.tail([float(i) for i in range(9)]), (7.0, 100.0 * 8 / 9, 1))
    case("tail of 3 samples leaves one beyond", run.tail([3.0, 1.0, 2.0]), (2.0, 100.0 * 2 / 3, 1))
    case("tail of 2 samples is the lower one", run.tail([5.0, 4.0]), (4.0, 50.0, 1))
    case("tail of 1 sample is that sample", run.tail([4.0]), (4.0, 100.0, 0))
    case("error digits", round(checks.error_digits([1e-12, 1e-14]), 9), 12.0)
    case("error digits of an exact result", checks.error_digits([0.0]), 16.0)


def main() -> int:
    test_verify_json()
    test_text_and_csv()
    test_highdeg()
    test_trace_arithmetic()
    test_statistics()
    bad = RESULTS.count(False)
    print(f"{len(RESULTS) - bad}/{len(RESULTS)} self-test cases hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
