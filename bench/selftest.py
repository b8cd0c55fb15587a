"""Self-test of the layer tracer on small inputs (a few seconds).

    python3 bench/selftest.py

Checks that installing the tracer reaches every import site, that removing
it puts back the original function objects, so an untraced run sees them,
that traced and untraced computations give identical verdicts, and that
the counters are consistent.  Exit code 0 when every check holds.  The
benchmark's --trace 1 runs make the same checks on the full workloads.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import nilalg  # noqa: E402
from nilalg import cli, formal, ideal, invariants, polarize, words  # noqa: E402
from nilalg.formal import parse_sum  # noqa: E402

import run  # noqa: E402
import tracer as T  # noqa: E402

# import sites that must all be patched: (namespace, attribute, defining module)
SITES = [
    (ideal, "bare_instances", polarize),
    (ideal, "check_characteristic", formal),
    (ideal, "component_basis", ideal),
    (nilalg, "component_basis", ideal),
    (nilalg, "t_theta", polarize),
    (formal, "check_characteristic", formal),
    (invariants, "check_characteristic", formal),
    (cli, "check_characteristic", formal),
    (sys.modules["nilalg.bounds"], "check_characteristic", formal),
]


def computations():
    f = parse_sum("x1^2.x2.x1^2 + 2*x1^3.x2.x1 - x1.x2^2.x1", 2, 0)
    g = parse_sum("x1.x2.x1^2 + x1^2.x2.x1", 2, 0)
    ideal.clear_cache()
    out = [
        ideal.nilpotency_degree(3, 2, 0, 7).degree,
        ideal.quotient_dimension(4, 2, 3, (3, 3)),
        ideal.reduce(4, 0, f),
        ideal.contains(4, 0, f),
        ideal.equiv_zero_certificate(4, 0, g, "succ"),
        invariants.generation_check(2, 2, 0, extra_deg=2)["summary"],
    ]
    ideal.clear_cache()
    return out


def main():
    failures = []

    def expect(ok, text):
        if not ok:
            failures.append(text)

    originals = {(ns.__name__, attr): getattr(ns, attr) for ns, attr, _ in SITES}
    modules = {m: sys.modules["nilalg." + m] for m in run.MODULES}
    tr = T.Tracer(nilalg, modules)
    expect(not tr.wrappers_present(), "wrappers present before install")
    plain = computations()

    tr.install()
    try:
        for ns, attr, _ in SITES:
            expect(getattr(getattr(ns, attr), "bench_wrapper", False),
                   "%s.%s not patched" % (ns.__name__, attr))
        traced = computations()
    finally:
        tr.uninstall()

    expect(not tr.wrappers_present(), "wrappers left after uninstall")
    for ns, attr, home in SITES:
        expect(getattr(ns, attr) is originals[(ns.__name__, attr)],
               "%s.%s is not the original after uninstall" % (ns.__name__, attr))
        expect(getattr(ns, attr) is getattr(home, attr),
               "%s.%s differs from %s.%s" % (ns.__name__, attr, home.__name__, attr))
    expect(plain == traced, "traced verdicts differ: %r vs %r" % (plain, traced))
    expect(computations() == plain, "verdicts changed after uninstall")

    m = tr.layer_metrics()
    expect(m["ideal.builds_modp"] > 0 and m["ideal.builds_q"] > 0, "no builds counted")
    expect(m["ideal.rows_accepted"] <= m["ideal.rows_offered"], "accepted > offered rows")
    expect(0 < m["polarize.bare_accepted"] <= m["polarize.bare_offered"], "bare counts")
    expect(m["ideal.screen_hits"] + m["ideal.q_lifts"] > 0, "no p = 0 verdicts counted")
    expect(m["formal.check_char_calls"] > 0 and m["invariants.poly_mul_calls"] > 0,
           "hot calls not counted")
    expect(m["ideal.cache_hits"] > 0, "no cache hits counted")
    self_total = sum(v for k, v in m.items() if k.endswith("_s"))
    expect(abs(self_total - tr.covered) < 1e-6 * max(1.0, tr.covered) + 1e-9,
           "self times %.6f do not add up to traced time %.6f" % (self_total, tr.covered))

    for text in failures:
        print("FAIL: %s" % text)
    print("selftest: %s" % ("ok" if not failures else "%d failures" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
