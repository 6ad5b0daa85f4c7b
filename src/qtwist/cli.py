"""Command line front end: construction specs, presets and random suites.

Specs, reports and tables are JSON end to end; complex numbers travel
as [re, im] pairs and structure constants as sparse triplets.  Exit
codes follow the CI contract: 0 all checks passed, 1 a check failed,
2 the input could not be used at all.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .abgroup import Bicharacter, FinAbGroup
from .apps import (
    finite_torus,
    full_verify,
    inner_coaction_examples,
    modules_examples,
    reduced_crossed_product,
    dual_coaction,
    rieffel_twist_compare,
    skew_tensor,
    sparse_triplets,
)
from .boxtimes import build_via_heisenberg, equivalent
from .coact import (
    GradedAlgebra,
    ad_grading,
    character_grading,
    delta_grading,
    graded_algebra,
)
from .heis import (
    amplify_pair,
    canonical_heisenberg,
    commutation_check,
    composite_heisenberg,
    conjugate_pair,
)
from .matspan import DEFAULT_TOL, Tolerance
from .qgroup import MAX_MODEL_ORDER, translations

REPRODUCER_PATH = "qtwist_reproducer.json"


class SpecError(ValueError):
    """A construction spec that cannot be turned into module inputs."""


# ---------------------------------------------------------------------------
# JSON <-> values


def decode_complex(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(x, (int, float)) for x in v)
    ):
        return complex(v[0], v[1])
    raise SpecError(f"{where}: expected a number or [re, im] pair, got {v!r}")


def decode_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(
        isinstance(r, list) and len(r) == len(rows[0]) for r in rows
    ):
        raise SpecError(f"{where}: expected a rectangular nested list")
    return np.array(
        [[decode_complex(v, where) for v in r] for r in rows], dtype=np.complex128
    )


def encode_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [[encode_complex(v) for v in row] for row in np.asarray(m)]


# ---------------------------------------------------------------------------
# spec parsing


def parse_group(obj, where: str) -> FinAbGroup:
    if not isinstance(obj, dict) or "cycles" not in obj:
        raise SpecError(f"{where}: expected an object with a 'cycles' list")
    cycles = obj["cycles"]
    if (
        not isinstance(cycles, list)
        or not cycles
        or not all(isinstance(n, int) and n >= 1 for n in cycles)
    ):
        raise SpecError(f"{where}.cycles: expected positive integers")
    order = math.prod(cycles)  # checked before anything enumerates the elements
    if order > MAX_MODEL_ORDER:
        raise SpecError(f"{where}.cycles: group order {order} exceeds {MAX_MODEL_ORDER}")
    return FinAbGroup(tuple(cycles))


def snap_bicharacter(
    g: FinAbGroup, h: FinAbGroup, table: np.ndarray
) -> tuple[Bicharacter, float]:
    """Nearest exponent-form bicharacter and the distance to it.

    The exponents are read off at generator pairs; the returned residual
    is the worst deviation over the whole value table, so it covers the
    multiplicativity equations as well as unimodularity.
    """
    exps = []
    gs, hs = g.elements(), h.elements()
    for i, ni in enumerate(g.cycles):
        gen_g = tuple(1 if a == i else 0 for a in range(g.rank))
        row = []
        for j, mj in enumerate(h.cycles):
            gen_h = tuple(1 if b == j else 0 for b in range(h.rank))
            v = table[gs.index(gen_g), hs.index(gen_h)]
            order = math.gcd(ni, mj)
            turns = (np.angle(v) / (2.0 * np.pi)) % 1.0
            row.append(int(round(turns * order)) % order)
        exps.append(tuple(row))
    chi = Bicharacter(g, h, tuple(exps))
    residual = float(np.max(np.abs(table - chi.value_table())))
    return chi, residual


def parse_bicharacter(obj, g: FinAbGroup, h: FinAbGroup) -> tuple[Bicharacter, float]:
    if not isinstance(obj, dict):
        raise SpecError("bicharacter: expected an object")
    if ("exponents" in obj) == ("values" in obj):
        raise SpecError("bicharacter: give exactly one of 'exponents' or 'values'")
    if "exponents" in obj:
        exps = obj["exponents"]
        if not isinstance(exps, list) or not all(isinstance(r, list) for r in exps):
            raise SpecError("bicharacter.exponents: expected a nested integer list")
        try:
            return Bicharacter(g, h, tuple(tuple(r) for r in exps)), 0.0
        except (TypeError, ValueError) as e:
            raise SpecError(f"bicharacter.exponents: {e}") from e
    table = decode_matrix(obj["values"], "bicharacter.values")
    if table.shape != (g.order, h.order):
        raise SpecError(
            "bicharacter.values: expected shape "
            f"{g.order} x {h.order} over the element enumerations, got "
            f"{table.shape[0]} x {table.shape[1]}"
        )
    return snap_bicharacter(g, h, table)


PRESETS = ("group_algebra", "function_algebra", "matrix")


def parse_algebra(obj, group: FinAbGroup, where: str, tol: Tolerance) -> GradedAlgebra:
    if not isinstance(obj, dict) or obj.get("preset") not in PRESETS:
        raise SpecError(f"{where}: expected a preset out of {PRESETS}")
    preset = obj["preset"]
    if preset == "group_algebra":
        return delta_grading(group, tol)
    if preset == "function_algebra":
        return character_grading(group, tol)
    basis = obj.get("basis")
    if not isinstance(basis, dict) or not basis:
        raise SpecError(f"{where}.basis: matrix preset needs a degree -> matrices map")
    parts = {}
    for key, mats in basis.items():
        try:
            deg = group.reduce(tuple(int(x) for x in str(key).split(",")))
        except (TypeError, ValueError) as e:
            raise SpecError(f"{where}.basis[{key!r}]: bad degree key ({e})") from e
        if not isinstance(mats, list) or not mats:
            raise SpecError(f"{where}.basis[{key!r}]: expected a list of matrices")
        parts.setdefault(deg, []).extend(
            decode_matrix(m, f"{where}.basis[{key!r}]") for m in mats
        )
    shapes = {m.shape for ms in parts.values() for m in ms}
    if len(shapes) != 1 or any(a != b for a, b in shapes):
        raise SpecError(f"{where}.basis: matrices must share one square shape")
    out = graded_algebra(group, parts, tol)
    if not out.report.get("passed", False):
        detail = {
            k: v
            for k, v in out.report.items()
            if isinstance(v, (bool, int, float, str))
        }
        raise SpecError(
            f"{where}.basis: not a multiplicative grading "
            f"(report {json.dumps(detail, sort_keys=True, default=float)})"
        )
    return out


WITNESSES = ("canonical", "composite", "amplified")


def witness_pair(name: str, chi: Bicharacter, tol: Tolerance):
    if name == "canonical":
        return canonical_heisenberg(chi, tol)
    if name == "composite":
        return composite_heisenberg(chi, tol)
    if name == "amplified":
        return amplify_pair(canonical_heisenberg(chi, tol), 2, tol)
    raise SpecError(f"options.witness: expected one of {WITNESSES}")


def load_spec(raw: dict, tol_override: float | None):
    if not isinstance(raw, dict):
        raise SpecError("spec: expected a JSON object")
    for key in ("group_g", "group_h", "bicharacter", "algebra_c", "algebra_d"):
        if key not in raw:
            raise SpecError(f"spec: missing required field '{key}'")
    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise SpecError("options: expected an object")
    tol_value = tol_override if tol_override is not None else options.get("tolerance")
    if tol_value is None:
        tol = DEFAULT_TOL
    else:
        try:
            tol = Tolerance(eps_eq=float(tol_value))
        except (TypeError, ValueError) as e:
            raise SpecError(f"options.tolerance: {e}") from e
    g = parse_group(raw["group_g"], "group_g")
    h = parse_group(raw["group_h"], "group_h")
    chi, chi_residual = parse_bicharacter(raw["bicharacter"], g, h)
    c = parse_algebra(raw["algebra_c"], g, "algebra_c", tol)
    d = parse_algebra(raw["algebra_d"], h, "algebra_d", tol)
    witness = options.get("witness", "canonical")
    if witness not in WITNESSES:
        raise SpecError(f"options.witness: expected one of {WITNESSES}")
    return c, d, chi, chi_residual, witness, tol


# ---------------------------------------------------------------------------
# report emission


def tolerance_dict(tol: Tolerance) -> dict:
    return {"eps_rank": tol.eps_rank, "eps_eq": tol.eps_eq}


def emit_report(report: dict, emit: str, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    if emit == "json":
        stream.write(json.dumps(report, sort_keys=True, indent=2, default=float))
        stream.write("\n")
        return
    rows = [("section", "key", "value")]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, (list, tuple)):
            rows.append((prefix, "", json.dumps(obj, default=float)))
        else:
            head, _, key = prefix.rpartition(".")
            rows.append((head, key, obj))

    walk("", report)
    for sec, key, val in rows:
        stream.write(f"{sec},{key},{val}\n")


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    try:
        with open(args.spec) as fh:
            raw = json.load(fh)
    except OSError as e:
        emit_report({"error": "io", "message": str(e)}, "json", sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        emit_report(
            {
                "error": "parse",
                "message": e.msg,
                "line": e.lineno,
                "column": e.colno,
            },
            "json",
            sys.stderr,
        )
        return 2
    try:
        c, d, chi, chi_residual, witness, tol = load_spec(raw, args.tolerance)
    except SpecError as e:
        emit_report({"error": "spec", "message": str(e)}, "json", sys.stderr)
        return 2

    if chi_residual > tol.eps_eq:
        report = {
            "name": "verify",
            "passed": False,
            "tolerance": tolerance_dict(tol),
            "witness": witness,
            "residuals": {"bicharacter_equations": chi_residual},
            "verdicts": {"bicharacter_equations": False},
            "nearest_exponents": [list(r) for r in chi.exponents],
        }
        emit_report(report, args.emit)
        return 1

    pair = witness_pair(witness, chi, tol)
    res = full_verify(c, d, chi, tol, pair=pair, witness=witness)
    report = dict(res.report)
    report["tolerance"] = tolerance_dict(tol)
    report["residuals"] = dict(report["residuals"])
    report["residuals"]["bicharacter_equations"] = chi_residual
    report["iso_found"] = bool(report["verdicts"]["routes_equivalent"])
    emit_report(report, args.emit)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# examples


def example_skew(args, tol: Tolerance) -> dict:
    res = skew_tensor(delta_grading(FinAbGroup((2,)), tol), delta_grading(FinAbGroup((2,)), tol), tol)
    model = finite_torus(2, 1, tol)
    report = dict(res.report)
    # the certified 2x2 images of the two order-two generators
    clock = np.diag([1.0, -1.0]).astype(np.complex128)
    shift = translations(FinAbGroup((2,)))[(1,)]
    report["generators"] = {"g1": encode_matrix(clock), "g2": encode_matrix(shift)}
    report["matrix_model"] = model.report
    report["passed"] = bool(res.passed and model.passed)
    return report


def example_torus(args, tol: Tolerance) -> dict:
    res = finite_torus(args.n, args.k, tol)
    report = dict(res.report)
    report["dim"] = report["dims"]["dim"]
    report["center_dim"] = report["dims"]["center"]
    return report


def example_crossed(args, tol: Tolerance) -> dict:
    res = reduced_crossed_product(delta_grading(FinAbGroup((3,)), tol), tol)
    dual = dual_coaction(res.objects["boxtimes"], tol)
    report = {
        "name": "crossed",
        "crossed": res.report,
        "dual": dual.report,
        "passed": bool(res.passed and dual.passed),
    }
    return report


def example_rieffel(args, tol: Tolerance) -> dict:
    group = FinAbGroup((3,))
    chi = Bicharacter(group, group, ((1,),))
    res = rieffel_twist_compare(delta_grading(group, tol), delta_grading(group, tol), chi, tol)
    return dict(res.report)


def example_inner(args, tol: Tolerance) -> dict:
    return dict(inner_coaction_examples(tol).report)


def example_modules(args, tol: Tolerance) -> dict:
    return dict(modules_examples(tol).report)


EXAMPLES = {
    "skew": example_skew,
    "torus": example_torus,
    "crossed": example_crossed,
    "rieffel": example_rieffel,
    "inner": example_inner,
    "modules": example_modules,
}


def cmd_example(args) -> int:
    tol = DEFAULT_TOL if args.tolerance is None else Tolerance(eps_eq=args.tolerance)
    report = EXAMPLES[args.name](args, tol)
    report["tolerance"] = tolerance_dict(tol)
    emit_report(report, args.emit)
    return 0 if report.get("passed") else 1


# ---------------------------------------------------------------------------
# the randomized suite


def group_catalog(max_order: int) -> list[tuple[int, ...]]:
    if max_order > MAX_MODEL_ORDER:
        raise SpecError(f"suite: --max-order {max_order} exceeds {MAX_MODEL_ORDER}")
    cycles = [(n,) for n in range(2, max_order + 1)]
    if max_order >= 4:
        cycles.append((2, 2))
    if not cycles:
        raise SpecError("suite: --max-order must be at least 2")
    return cycles


GRADING_KINDS = ("group_algebra", "function_algebra", "matrix_units", "inner_matrix")


def random_grading(kind: str, group: FinAbGroup, rng, tol: Tolerance) -> GradedAlgebra:
    if kind == "group_algebra":
        return delta_grading(group, tol)
    if kind == "function_algebra":
        return character_grading(group, tol)
    els = group.elements()
    degrees = [els[rng.integers(len(els))] for _ in range(2)]
    if kind == "matrix_units":
        return ad_grading(group, degrees, tol)
    # inner_matrix: all of M_2 in degree zero
    return ad_grading(group, [group.zero(), group.zero()], tol)


def grading_spec(kind: str, graded: GradedAlgebra) -> dict:
    if kind == "group_algebra":
        return {"preset": "group_algebra"}
    if kind == "function_algebra":
        return {"preset": "function_algebra"}
    basis = {}
    for g in graded.degrees():
        key = ",".join(str(x) for x in g)
        basis[key] = [encode_matrix(m) for m in graded.component(g).basis]
    return {"preset": "matrix", "basis": basis}


def random_bicharacter(g: FinAbGroup, h: FinAbGroup, rng) -> Bicharacter:
    exps = tuple(
        tuple(int(rng.integers(math.gcd(ni, mj))) for mj in h.cycles)
        for ni in g.cycles
    )
    return Bicharacter(g, h, exps)


def instance_spec(record: dict) -> dict:
    """A verify-ready construction spec for one suite instance."""
    return {
        "group_g": {"cycles": list(record["group_g"])},
        "group_h": {"cycles": list(record["group_h"])},
        "bicharacter": {"exponents": [list(r) for r in record["bicharacter"]]},
        "algebra_c": record["spec_c"],
        "algebra_d": record["spec_d"],
        "options": {"witness": "canonical"},
    }


def run_suite(seed: int, max_order: int, count: int = 24, tol: Tolerance = DEFAULT_TOL):
    rng = np.random.default_rng(seed)
    cycles = group_catalog(max_order)

    # pinned openers keep the order-two skew case in every run
    z2 = (2,)
    pinned = [
        (z2, z2, ((1,),), "group_algebra", "group_algebra"),
        (z2, z2, ((0,),), "group_algebra", "function_algebra"),
    ]

    instances = []
    failures = []
    for idx in range(count):
        if idx < len(pinned):
            gcyc, hcyc, exps, kind_c, kind_d = pinned[idx]
            g, h = FinAbGroup(gcyc), FinAbGroup(hcyc)
            chi = Bicharacter(g, h, exps)
        else:
            g = FinAbGroup(cycles[rng.integers(len(cycles))])
            h = FinAbGroup(cycles[rng.integers(len(cycles))])
            chi = random_bicharacter(g, h, rng)
            kind_c = GRADING_KINDS[rng.integers(len(GRADING_KINDS))]
            kind_d = GRADING_KINDS[rng.integers(len(GRADING_KINDS))]
        c = random_grading(kind_c, g, rng, tol)
        d = random_grading(kind_d, h, rng, tol)
        res = full_verify(c, d, chi, tol)
        record = {
            "group_g": list(g.cycles),
            "group_h": list(h.cycles),
            "bicharacter": [list(r) for r in chi.exponents],
            "kind_c": kind_c,
            "kind_d": kind_d,
            "spec_c": grading_spec(kind_c, c),
            "spec_d": grading_spec(kind_d, d),
            "dims": dict(res.report["dims"]),
            "residuals": dict(res.report["residuals"]),
            "verdicts": dict(res.report["verdicts"]),
            "passed": bool(res.passed),
        }
        if idx < 5:
            # witness independence: the three pair constructions agree
            x1 = res.objects["heisenberg"]
            alt = {}
            for name in ("composite", "amplified"):
                xexp = build_via_heisenberg(
                    c, d, chi, witness_pair(name, chi, tol), tol=tol, label=name
                )
                pm = equivalent(x1, xexp, tol)
                alt[name] = bool(pm is not None and pm.report["passed"])
            record["pair_independence"] = alt
            record["passed"] = bool(record["passed"] and all(alt.values()))
        instances.append(record)
        if not record["passed"]:
            failures.append(idx)

    # commutation controls: conjugate pairs commute, equal pairs do not
    z3 = FinAbGroup((3,))
    chi3 = Bicharacter(z3, z3, ((1,),))
    p = canonical_heisenberg(chi3, tol)
    commuting = float(commutation_check(p, conjugate_pair(p, tol)))
    clashing = float(commutation_check(p, p))
    controls_ok = commuting <= 1e-12 and clashing > 0.1

    dim_law = sum(1 for r in instances if r["verdicts"]["dim_law"])
    report = {
        "name": "suite",
        "seed": int(seed),
        "max_order": int(max_order),
        "tolerance": tolerance_dict(tol),
        "instances": instances,
        "commutation_controls": {
            "conjugate_pair_commutators": commuting,
            "same_pair_commutators": clashing,
            "passed": bool(controls_ok),
        },
        "summary": {
            "count": len(instances),
            "dim_law_instances": dim_law,
            "failures": failures,
        },
        "passed": bool(not failures and controls_ok),
    }
    return report


def cmd_suite(args) -> int:
    report = run_suite(args.seed, args.max_order)
    emit_report(report, "json")
    if report["passed"]:
        return 0
    bad = report["summary"]["failures"]
    if bad:
        spec = instance_spec(report["instances"][bad[0]])
        with open(REPRODUCER_PATH, "w") as fh:
            json.dump(spec, fh, sort_keys=True, indent=2)
        sys.stderr.write(f"reproducer spec written to {REPRODUCER_PATH}\n")
    return 1


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtwist",
        description="verify twisted tensor product constructions over finite abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full check battery for a spec")
    p_verify.add_argument("spec", help="path to a construction spec JSON file")
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.add_argument("--emit", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_example = sub.add_parser("example", help="run a named example scenario")
    p_example.add_argument("name", choices=sorted(EXAMPLES))
    p_example.add_argument("--n", type=int, default=4)
    p_example.add_argument("--k", type=int, default=1)
    p_example.add_argument("--tolerance", type=float, default=None)
    p_example.add_argument("--emit", choices=("json", "csv"), default="json")
    p_example.set_defaults(func=cmd_example)

    p_suite = sub.add_parser("suite", help="run the randomized property suite")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--max-order", type=int, default=4)
    p_suite.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        emit_report({"error": "params", "message": str(e)}, "json", sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
