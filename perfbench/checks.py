"""Correctness checks for every program call the benchmark makes.

Payloads are checked by content, never by bytes: fields and columns the
checks do not name are ignored, so additive report fields are no failure.
A checker takes the call's standard output and the pass context, raises
`CheckFailed` on any problem, and returns the numeric errors it saw (they
feed the err_digits metric).  `judge` adds the process-level rules: a
non-zero exit or a traceback on standard error fails the call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

FIXTURE_PATH = Path(__file__).resolve().parent / "fixture.json"
SCHEMA = "s3harm/1"
_KV = re.compile(r"^(\S+): (.*)$")


class CheckFailed(Exception):
    pass


@dataclass
class PassContext:
    """State shared by the calls of one pass, for cross-route checks."""

    fixture: dict
    seed: int
    multiplicity: dict = field(default_factory=dict)


def load_fixture() -> dict:
    with open(FIXTURE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def judge(checker, code: int, stdout: str, stderr: str, ctx: PassContext):
    """(ok, message, errors) for one finished program call."""
    try:
        _process_ok(code, stderr)
        errors = checker(stdout, ctx)
    except CheckFailed as exc:
        return False, str(exc), []
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return False, f"unreadable payload: {exc!r}", []
    return True, "", errors


def _process_ok(code: int, stderr: str) -> None:
    expect(code == 0, f"exit code {code}")
    expect("Traceback (most recent call last)" not in stderr, "traceback on stderr")


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def within_tol(errors, tol: float, what: str) -> list[float]:
    for err in errors:
        expect(math.isfinite(err) and err <= tol, f"{what} error {err} above tol {tol}")
    return list(errors)


def error_digits(errors, cap: float = 16.0) -> float:
    """-log10 of the largest error, capped for an exactly zero error."""
    worst = max(errors, default=0.0)
    return cap if worst <= 10.0 ** -cap else -math.log10(worst)


# ------------------------------------------------------------ parsing


def parse_text(out: str) -> tuple[dict, list[dict]]:
    """Key/value header and aligned table of the CLI's text format.

    Cells are cut at the header's column starts, so a cell may hold spaces.
    """
    lines = out.splitlines()
    kv = {}
    i = 0
    while i < len(lines) and _KV.match(lines[i]):
        key, value = _KV.match(lines[i]).groups()
        kv[key] = value
        i += 1
    rows = []
    if i < len(lines):
        header = lines[i]
        starts = [m.start() for m in re.finditer(r"\S+", header)]
        names = header.split()
        for line in lines[i + 1:]:
            if not line.strip():
                continue
            bounds = list(zip(starts, starts[1:] + [None]))
            rows.append({n: line[a:b].strip() for n, (a, b) in zip(names, bounds)})
    return kv, rows


def parse_json(out: str) -> dict:
    payload = json.loads(out)
    expect(isinstance(payload, dict), "payload is not an object")
    expect(payload.get("schema") == SCHEMA, f"schema {payload.get('schema')!r}")
    return payload


def collect_errors(node) -> list[float]:
    """Every number stored under a key ending in 'error', at any depth."""
    found = []
    if isinstance(node, dict):
        for key, value in node.items():
            if str(key).endswith("error") and isinstance(value, (int, float)) and not isinstance(value, bool):
                found.append(float(value))
            else:
                found.extend(collect_errors(value))
    elif isinstance(node, list):
        for value in node:
            found.extend(collect_errors(value))
    return found


def c8_multiplicity(j: int, table: list[int]) -> int:
    """Cyclic-8 multiplicity from the frozen table and the degree recursion
    m(j+4) - m(j) = 8j + 20 + 2(-1)^j (acceptance criterion 3)."""
    if j < len(table):
        return table[j]
    k = j - 4
    return c8_multiplicity(k, table) + 8 * k + 20 + 2 * (-1) ** k


# ------------------------------------------------------------ checkers


def group_text(which: str):
    def check(out, ctx):
        kv, rows = parse_text(out)
        expected = ctx.fixture["group_order"][which]
        expect(kv.get("which") == which, f"which {kv.get('which')!r}")
        expect(int(kv["count"]) == expected, f"group {which} count {kv['count']} != {expected}")
        expect(len(rows) == expected, f"group {which} has {len(rows)} rows, expected {expected}")
        return []

    return check


def group_json(which: str):
    def check(out, ctx):
        p = parse_json(out)
        want = ctx.fixture["deck"][which]
        expect(p.get("which") == which, f"which {p.get('which')!r}")
        expect(p.get("count") == want["order"], f"{which} order {p.get('count')} != {want['order']}")
        expect(p.get("isomorphism") == want["isomorphism"], f"{which} isomorphism {p.get('isomorphism')!r}")
        labels = [r["label"] for r in p["rows"]]
        expect(len(labels) == want["order"] and len(set(labels)) == len(labels), f"{which} element labels {labels}")
        return []

    return check


def multiplicity_text(manifold: str, j_max: int):
    def check(out, ctx):
        kv, rows = parse_text(out)
        expect(kv.get("manifold") == manifold, f"manifold {kv.get('manifold')!r}")
        expect([int(r["j"]) for r in rows] == list(range(j_max + 1)), "multiplicity rows are not j = 0..jmax")
        values = [int(r["m"]) for r in rows]
        table = ctx.fixture["multiplicity"][manifold]
        expect(values[: len(table)] == table, f"{manifold} multiplicities {values[:len(table)]} != {table}")
        if manifold == "C2":
            for j, value in enumerate(values):
                expect(value == c8_multiplicity(j, table), f"C2 multiplicity at j={j} breaks the recursion")
        ctx.multiplicity[manifold] = values
        return []

    return check


def _basis_count_matches(ctx, manifold: str, j: int, count: int) -> None:
    table = ctx.multiplicity.get(manifold)
    expect(table is not None and len(table) > j, f"no {manifold} multiplicity row {j} to cross-check")
    expect(count == table[j], f"{manifold} basis count {count} != multiplicity {table[j]} at j={j}")


def basis_json(manifold: str, j: int):
    def check(out, ctx):
        p = parse_json(out)
        expect(p.get("manifold") == manifold and p.get("j") == j, "basis header")
        rows = p["rows"]
        expect(p.get("count") == len(rows), f"count {p.get('count')} != {len(rows)} rows")
        expect(all(r["j"] == j and r["manifold"] == manifold and r["terms"] for r in rows), "basis row fields")
        _basis_count_matches(ctx, manifold, j, len(rows))
        return []

    return check


def basis_csv(manifold: str, j: int):
    def check(out, ctx):
        rows = list(csv.DictReader(io.StringIO(out)))
        expect(all(r["manifold"] == manifold and int(r["j"]) == j for r in rows), "basis row fields")
        expect(all(json.loads(r["terms"]) for r in rows), "basis row without terms")
        _basis_count_matches(ctx, manifold, j, len(rows))
        return []

    return check


def induced_csv():
    def check(out, ctx):
        rows = list(csv.DictReader(io.StringIO(out)))
        want = ctx.fixture["census"]
        dims = [int(r["dim"]) for r in rows]
        expect(len(rows) == want["rows"], f"census has {len(rows)} rows")
        sums = {
            "sum_dim_sq": sum(d * d for d in dims),
            "sum_dim_m_c8": sum(d * int(r["m_c8"]) for d, r in zip(dims, rows)),
            "sum_dim_m_q": sum(d * int(r["m_q"]) for d, r in zip(dims, rows)),
        }
        for key, value in sums.items():
            expect(value == want[key], f"census {key} {value} != {want[key]}")
        return []

    return check


def _check_verify_rows(rows, suites, ctx, passed_value) -> None:
    names = {r["name"] for r in rows}
    for suite in suites:
        for name in ctx.fixture["verify_rows"][suite]:
            expect(name in names, f"verify row {name} missing")
    for r in rows:
        expect(r["passed"] == passed_value, f"verify row {r['name']} did not pass")
        want = ctx.fixture["verify_measured"].get(r["name"])
        if want is not None:
            expect(str(r["measured"]) == str(want), f"{r['name']} measured {r['measured']} != {want}")


def verify_text(suite: str):
    def check(out, ctx):
        kv, rows = parse_text(out)
        expect(kv.get("passed") == "true", "verify passed is not true")
        expect(kv.get("suite") == suite and kv.get("seed") == str(ctx.seed), "verify header")
        _check_verify_rows(rows, (suite,), ctx, "true")
        errors = []
        for r in rows:
            if r["name"] in ctx.fixture["verify_measured"] or r["measured"] == "None":
                continue
            errors.append(float(r["measured"]))
        return within_tol(errors, ctx.fixture["tol"], "verify")

    return check


def verify_json(suite: str, j_max: int):
    def check(out, ctx):
        p = parse_json(out)
        expect(p.get("passed") is True, "verify passed is not true")
        expect(p.get("suite") == suite and p.get("jmax") == j_max and p.get("seed") == ctx.seed, "verify header")
        suites = ("group", "basis", "induced") if suite == "all" else (suite,)
        _check_verify_rows(p["rows"], suites, ctx, True)
        for name, detail in p.get("details", {}).items():
            if "count_by_degree" not in detail:
                continue
            manifold = detail["manifold"]
            table = ctx.fixture["multiplicity"][manifold]
            counts = {int(k): v for k, v in detail["count_by_degree"].items()}
            expect(sorted(counts) and max(counts) == j_max, f"{name} stops below jmax")
            for j, count in counts.items():
                mult = detail["multiplicity_by_degree"][str(j)]
                expect(count == mult, f"{name} count {count} != multiplicity {mult} at j={j}")
                if j < len(table):
                    expect(count == table[j], f"{name} count {count} != frozen {table[j]} at j={j}")
                if manifold == "C2":
                    expect(count == c8_multiplicity(j, table), f"{name} breaks the recursion at j={j}")
                proj = detail["projector"][str(j)]
                expect(proj["rank"] == count, f"{name} projector rank {proj['rank']} != {count} at j={j}")
        return within_tol(collect_errors(p.get("details", {})), ctx.fixture["tol"], "verify")

    return check


def highdeg_degree(rec: dict, ctx: PassContext) -> list[float]:
    """One per-degree record of the library calls in child.py."""
    j = rec["j"]
    table = ctx.fixture["multiplicity"]
    expect(rec["c8"]["multiplicity"] == c8_multiplicity(j, table["C2"]), f"multiplicity_c8({j}) off the recursion")
    for name in ("c8", "q"):
        part = rec[name]
        expect(part["rank"] == part["multiplicity"], f"{name} projector rank {part['rank']} != {part['multiplicity']} at j={j}")
    expect(rec["lift_pairs"] > 0, f"no lift products checked at j={j}")
    errors = [rec["c8"]["route_diff"], rec["q"]["route_diff"], rec["unitarity_err"], rec["homomorphism_err"]]
    return within_tol(errors, ctx.fixture["tol"], f"degree {j}")


def judge_highdeg(code: int, stdout: str, stderr: str, ctx: PassContext, degrees):
    """(ok, message, errors, call_s) for each degree of one library process.

    A failed or unreadable process fails every degree it was asked for.
    """
    try:
        _process_ok(code, stderr)
        records = json.loads(stdout)["degrees"]
        expect([r["j"] for r in records] == list(degrees), "degrees run differ from degrees asked")
    except CheckFailed as exc:
        return [(False, str(exc), [], None) for _ in degrees]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [(False, f"unreadable payload: {exc!r}", [], None) for _ in degrees]
    results = []
    for rec in records:
        ok, message, errors = judge(lambda _out, c, rec=rec: highdeg_degree(rec, c), 0, "", "", ctx)
        results.append((ok, message, errors, rec.get("call_s")))
    return results
