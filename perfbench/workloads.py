"""The benchmark's workloads: one callable per op, in an order drawn from a seed.

Every op calls qtwist's public API and returns the JSON report it produced;
the caller times the call and checks the report.  ``build(name, seed)``
returns the op list of one pass; every pass runs the same list.
"""

from __future__ import annotations

import numpy as np

from qtwist import abgroup, apps, cli, coact
from qtwist.matspan import DEFAULT_TOL

# suite_mix draws its bicharacters and matrix-unit degrees from this seed,
# whatever the run's seed, so every op of every run has a golden report.
INSTANCE_SEED = 0


def torus_sweep(rng) -> list:
    """finite_torus(n, k) for n = 2..6 and every k < n, in a seeded order."""
    cases = [(n, k) for n in range(2, 7) for k in range(n)]
    ops = []
    for i in rng.permutation(len(cases)):
        n, k = cases[i]
        ops.append((f"finite_torus n={n} k={k}", lambda n=n, k=k: apps.finite_torus(n, k).report))
    return ops


def crossed_dual(rng) -> list:
    """Crossed product of delta_grading(G), then the dual coaction on it."""
    all_cycles = [(2,), (3,), (2, 2)]
    ops = []
    for i in rng.permutation(len(all_cycles)):
        cycles = all_cycles[i]
        graded = coact.delta_grading(abgroup.FinAbGroup(cycles))
        held = {}

        def crossed(graded=graded, held=held):
            res = apps.reduced_crossed_product(graded)
            held["boxtimes"] = res.objects["boxtimes"]
            return res.report

        def dual(held=held):
            return apps.dual_coaction(held.pop("boxtimes")).report

        ops.append((f"reduced_crossed_product G={cycles}", crossed))
        ops.append((f"dual_coaction G={cycles}", dual))
    return ops


def _grading_key(kind, graded) -> str:
    comps = ",".join(
        f"{'.'.join(map(str, g))}:{graded.component(g).dim}" for g in sorted(graded.degrees())
    )
    return f"{kind}[{comps}]"


def suite_mix(rng) -> list:
    """Small full_verify instances from the suite's own generators.

    With gi, hi the catalog indices of G, H and ci, di the indices of the
    grading kinds of C, D, an instance is made when gi + hi + ci + di is a
    multiple of 4.  Every group pair then meets every kind once on each
    side and every kind pair meets four group pairs: 64 instances, about
    6 s a pass, so a run has several passes to take medians over.
    Bicharacters and matrix-unit degrees come from a generator seeded with
    INSTANCE_SEED, so the instances are the same on every run and all of
    them are in the snapshot; the run's seed fixes the op order only.
    """
    draw = np.random.default_rng(INSTANCE_SEED)
    catalog = [abgroup.FinAbGroup(c) for c in cli.group_catalog(4)]
    kinds = cli.GRADING_KINDS
    ops = []
    for gi, g in enumerate(catalog):
        for hi, h in enumerate(catalog):
            for ci, kind_c in enumerate(kinds):
                for di, kind_d in enumerate(kinds):
                    if (gi + hi + ci + di) % 4:
                        continue
                    chi = cli.random_bicharacter(g, h, draw)
                    c = cli.random_grading(kind_c, g, draw, DEFAULT_TOL)
                    d = cli.random_grading(kind_d, h, draw, DEFAULT_TOL)
                    key = (
                        f"full_verify G={g.cycles} H={h.cycles} chi={chi.exponents} "
                        f"C={_grading_key(kind_c, c)} D={_grading_key(kind_d, d)}"
                    )
                    ops.append((key, lambda c=c, d=d, chi=chi: apps.full_verify(c, d, chi).report))
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {"torus_sweep": torus_sweep, "crossed_dual": crossed_dual, "suite_mix": suite_mix}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](np.random.default_rng(seed))
