"""The tracer patches every binding of a traced function and undoes it."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from qtwist import apps, boxtimes  # noqa: E402
from qtwist.abgroup import FinAbGroup  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_every_binding_is_patched_and_restored():
    original = boxtimes.coords_product_pairs
    assert apps.coords_product_pairs is original
    tr = Tracer()
    tr.install()
    try:
        assert boxtimes.coords_product_pairs is not original
        assert apps.coords_product_pairs is boxtimes.coords_product_pairs
        assert FinAbGroup.reduce.__wrapped__ is not None
    finally:
        tr.uninstall()
    assert boxtimes.coords_product_pairs is original
    assert apps.coords_product_pairs is original
    assert not hasattr(FinAbGroup.reduce, "__wrapped__")


def test_nested_spans_self_time_and_counts():
    tr = Tracer()
    tr.install()
    try:
        start = tr.mark()
        apps.finite_torus(3, 1)
        end = tr.mark()
    finally:
        tr.uninstall()
    names = [tr.names[s[0]] for s in tr.spans]
    top = names.index("apps.finite_torus")
    # coords_product_pairs is reached through boxtimes' own binding
    inner = [i for i, n in enumerate(names) if n == "boxtimes.coords_product_pairs"]
    assert inner
    for i in inner:
        p = tr.spans[i][1]
        while p >= 0 and p != top:
            p = tr.spans[p][1]
        assert p == top
    out = tr.summary((start, end), [(end, end)])
    assert out["apps.finite_torus.calls"] == 1
    assert out["boxtimes.coords_product_pairs.calls"] == len(inner)
    assert out["boxtimes.coords_product_pairs.products"] > 0
    assert 0 < out["boxtimes.leg_frames.table_nnz_ratio"] <= 1
    assert out["abgroup.FinAbGroup.reduce.calls"] > 0
    total = sum(v for k, v in out.items() if k.count(".") == 1 and k.endswith(".self_s"))
    assert abs(total - out["apps.finite_torus.s"]) < 1e-9
    assert tr.known("boxtimes.build.s") and tr.known("matspan.self_s")
    assert not tr.known("boxtimes.no_such_function.s")
