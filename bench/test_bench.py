"""Tests of the benchmark's own machinery.

    python -m pytest bench/test_bench.py
"""

import random
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import refs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, SYMPY_ENTRIES, Tracer, layer_metrics, merge  # noqa: E402


# -- seeded input generator ----------------------------------------------------


def _rounds(cls, seed, n=3):
    rng = random.Random(seed)
    wl = cls()
    return [[(op.kind, op.spec) for op in wl.round(rng, i)] for i in range(n)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    cls = workloads.WORKLOADS[name]
    assert _rounds(cls, 7) == _rounds(cls, 7)
    assert _rounds(cls, 7) != _rounds(cls, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_has_the_same_mix(name):
    cls = workloads.WORKLOADS[name]
    kinds = [sorted(k for k, _ in r) for r in _rounds(cls, 3, n=4)]
    assert all(k == kinds[0] for k in kinds)


def test_series_rounds_hold_every_kernel_interval():
    want = sorted((k, a0 + shift) for k, (a0, _) in refs.SERIES_DOMAINS.items()
                  for shift in workloads.SERIES_SHIFTS[k]
                  for _ in workloads.SeriesCold.FAMILIES)
    for seed in (1, 2):
        for ops in _rounds(workloads.SeriesCold, seed, n=2):
            assert sorted((k["kernel"], k["a"]) for _, s in ops for k in s["on"]) == want


def test_function_specs_are_grammar_valid():
    from psifrac.parser import parse_expr

    rng = random.Random(5)
    for _ in range(50):
        parse_expr(workloads.power_sum_spec(rng)[0])
        parse_expr(workloads.general_spec(rng, rng.choice(["sum", "product", "product2"])))


# -- tail percentile -------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(11, 100 / 11), (20, 50.0), (100, 90.0),
                                    (1000, 99.0), (1234, 100 * 1224 / 1234)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = random.Random(n).sample(range(10 * n), n)
    value, got_pct, got_n = run.tail(samples)
    assert got_n == n
    assert got_pct == pytest.approx(pct)
    assert sum(1 for s in samples if s > value) == 10
    # one percentile step higher would leave fewer than ten beyond
    assert sum(1 for s in samples if s > sorted(samples)[n - 10]) == 9


def test_tail_below_eleven_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# -- core-speed adjustment ------------------------------------------------------


def test_speed_factor_uses_the_samples_either_side():
    meter = speed.Speedometer()
    meter.times, meter.slices = [0.0, 1.0, 2.0], [1e-3, 2e-3, 4e-3]
    ref = speed.REFERENCE_SLICE_S
    assert meter.factor(0.1, 0.9) == pytest.approx(ref / 1.5e-3)
    assert meter.factor(1.1, 1.9) == pytest.approx(ref / 3e-3)
    # an operation across a sample takes it and the samples either side
    assert meter.factor(0.5, 1.5) == pytest.approx(ref / (7e-3 / 3))
    # none after the operation: the one before alone
    assert meter.factor(2.5, 3.0) == pytest.approx(ref / 4e-3)


def test_time_on_the_reference_core():
    meter = speed.Speedometer()
    meter.times, meter.slices = [0.0, 1.0, 2.0, 3.0], [1e-3, 2e-3, 4e-3, 8e-3]
    ref = speed.REFERENCE_SLICE_S
    assert meter.on_reference(0.5, 3.0) == pytest.approx(2.5 * ref / 4e-3)
    assert meter.on_reference(3.5, 4.0) == pytest.approx(0.5 * ref / 8e-3)  # the last


class Ticker:
    """A clock that moves only when the fake work says so."""

    now = 0.0

    def __call__(self):
        return self.now


def test_sample_is_the_mean_slice_time_sized_by_the_operation_before():
    tick = Ticker()
    times = iter([1.0, 3.0] * speed.MAX_SLICES)
    calls = []

    def slice_fn():
        calls.append(1)
        tick.now += next(times) * speed.REFERENCE_SLICE_S

    meter = speed.Speedometer(clock=tick, slice_fn=slice_fn)
    assert meter.sample() == pytest.approx(2 * speed.REFERENCE_SLICE_S)
    assert len(calls) == speed.MIN_SLICES and meter.times == [tick.now]
    calls.clear()
    meter.sample_after(10.0)  # a long operation: the largest sample
    assert len(calls) == speed.MAX_SLICES


def test_timed_scales_to_the_reference_core():
    tick = Ticker()

    def slice_at_half_speed():
        tick.now += 2 * speed.REFERENCE_SLICE_S

    def op():
        tick.now += 0.5
        return "done"

    meter = speed.Speedometer(clock=tick, slice_fn=slice_at_half_speed)
    result, measured, adjusted = meter.timed(op)
    assert (result, measured) == ("done", 0.5)
    assert adjusted == pytest.approx(0.25)


def test_loop_scales_each_operation_by_its_own_samples():
    class Instant:
        def round(self, rng, index):
            return [workloads.Op("x", {})] * 3

        def run(self, op):
            return None

        def check(self, op, result):
            return workloads.Checked()

    meter = speed.Speedometer(slice_fn=lambda: time.sleep(1e-4))
    loop = run.Loop(Instant(), random.Random(0), meter)
    loop.run_for(0.0, trace=False)
    assert len(meter.slices) == 4  # before each operation and after the last
    measured = loop.latencies(False, adjusted=False)
    want = [net * speed.REFERENCE_SLICE_S / statistics.fmean(meter.slices[i:i + 2])
            for i, (t0, t1, net) in enumerate(loop.spans[False])]
    assert len(measured) == 3 and loop.latencies(False) == pytest.approx(want)


def test_timer_samples_inside_a_long_operation():
    meter = speed.Speedometer()
    with meter.ticking():
        meter.sample()
        t0 = time.perf_counter()
        while time.perf_counter() < t0 + 5 * speed.TICK_S:
            pass
        t1 = time.perf_counter()
        meter.sample()
    assert sum(1 for t in meter.times if t0 < t < t1) >= 2
    assert 0 < meter.ticked_s < t1 - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_launcher_hands_back_the_childs_samples():
    meter = speed.Speedometer()
    meter.sample()
    report = workloads.OUT / "test.report.json"
    res = workloads.spawn([sys.executable, str(workloads.LAUNCHER), str(report), "eval",
                           "integral", "--f", "t", "--t", "1.0", "--format", "json"],
                          "test", report)
    assert res.returncode == 0 and res.trace is None
    times, slices = res.report["times"], res.report["slices"]
    assert len(times) == len(slices) >= 2 and times == sorted(times)
    meter.absorb(res.report)
    assert meter.times[1:] == times == sorted(meter.times)[1:]
    assert meter.ticked_s == res.report["ticked_s"]


# -- self time ---------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_nested_spans():
    # A [0, 10] holds B [1, 5] (which holds C [2, 4]) and D [6, 9]
    tr = Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 9, 10]))
    tr.enter("A")
    tr.enter("B")
    tr.enter("C")
    tr.exit()
    tr.exit()
    tr.enter("D")
    tr.exit()
    tr.exit()
    assert dict(tr.self_s) == {"A": 3, "B": 2, "C": 2, "D": 3}
    assert dict(tr.calls) == {"A": 1, "B": 1, "C": 1, "D": 1}
    assert dict(tr.edges) == {("A", "B"): 1, ("B", "C"): 1, ("A", "D"): 1}
    # spans are recorded on exit with their parent's span id (A=0, B=1, ...)
    by_name = {s[0]: s for s in tr.spans}
    assert by_name["C"][3] == 1 and by_name["B"][3] == 0 and by_name["A"][3] == -1
    assert by_name["D"][3] == 0


def test_span_store_is_capped_but_aggregates_are_not():
    tr = Tracer(clock=FakeClock(range(100)), keep=3)
    for _ in range(10):
        tr.enter("x")
        tr.exit()
    assert len(tr.spans) == 3 and tr.n_spans == 10 and tr.calls["x"] == 10


def test_merge_offsets_parent_ids():
    a = Tracer(clock=FakeClock(range(10)))
    a.enter("p")
    a.enter("c")
    a.exit()
    a.exit()
    merged = merge([a.state(), a.state()])
    assert merged["calls"] == {"p": 2, "c": 2}
    assert [s[3] for s in merged["spans"]] == [0, -1, 2, -1]


# -- installation -----------------------------------------------------------------


def _snapshot():
    import sympy

    import psifrac.cli  # noqa: F401
    import psifrac.selftest  # noqa: F401

    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "psifrac" or name.startswith("psifrac."):
            snap[name] = dict(vars(mod))
            for attr, obj in vars(mod).items():
                if isinstance(obj, type) and obj.__module__ == name:
                    snap[f"{name}.{attr}"] = dict(vars(obj))
    snap["sympy"] = {e: getattr(sympy, e) for e in SYMPY_ENTRIES}
    return snap


def _clear_caches():
    from sympy.core.cache import clear_cache

    from psifrac import fracops, prolong

    for fn in (fracops._psi_jet_expr, fracops._psi_jet_fn, prolong._dt_expr,
               prolong._fn_xt, prolong._fn_xtu):
        fn.cache_clear()
    clear_cache()


def _sample_results():
    """A little of every workload, on fresh objects and cold caches."""
    kw = workloads.KernelsWarm()
    kw.setup()
    out = []
    for kernel in refs.SERIES_DOMAINS:
        out += kw._evaluate(kernel, "P", 1.3, kw.psi[kernel].a + 0.1, products=True)
        out += kw._evaluate(kernel, "E", 0.4, kw.psi[kernel].a + 0.2, products=False)
    sw = workloads.SymmetrySweep()
    for op in sw.round(random.Random(1), 0):
        if op.kind in ("row", "perturbed"):
            out.append(sorted(sw.run(op)[2].items()))
        elif op.kind == "eta":
            out.append(sw.run(op))
    return out


def test_wrappers_restore_originals_and_match_untraced_results():
    before = _snapshot()
    _clear_caches()
    plain = _sample_results()
    _clear_caches()
    tr = Tracer().install()
    try:
        traced = _sample_results()
    finally:
        tr.uninstall()
    after = _snapshot()
    assert traced == plain  # bit-identical
    assert before.keys() == after.keys()
    for key in before:
        for attr, obj in before[key].items():
            assert after[key][attr] is obj, f"{key}.{attr} not restored"
    m = layer_metrics(tr.state())
    for name in ("fracops.frac_integral", "fracops.frac_derivative", "fracops.psi_deriv_m",
                 "psi.invert", "special.gen_binom", "symmetry.detsys_gfbe",
                 "prolong.eta_alpha_psi", "prolong.omega_commutator",
                 "fracops.sympy_diff", "jets.sympy_lambdify"):
        assert m[f"{name}.calls"][0] > 0, name
    # prolong calls frac_derivative through its own alias
    assert ("prolong.omega_commutator", "fracops.frac_derivative") in tr.edges


def test_every_layer_function_exists():
    import importlib

    for module, attrs in LAYERS.items():
        mod = importlib.import_module(f"psifrac.{module}")
        for attr in attrs:
            obj = mod
            for part in attr.split("."):
                obj = getattr(obj, part)
            assert callable(obj)


# -- output parsing ----------------------------------------------------------------


def test_import_split_attributes_nested_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     sympy.core",
        "import time:        50 |        150 |   sympy",
        "import time:        30 |         30 |       numpy.linalg",
        "import time:        20 |         50 |     numpy",
        "import time:        10 |         60 |   scipy",
        "import time:         5 |        215 | psifrac",
    ])
    got = run.import_split(text)
    assert got == {"total": 215e-6, "psifrac": 5e-6, "sympy": 150e-6,
                   "scipy": 10e-6, "numpy": 50e-6}


def test_human_table_keeps_cells_with_spaces():
    text = ("label     xi  c0\n"
            "X1: d/dx  1   0\n"
            "scaling   x   0\n"
            "matches_published: True\n")
    cols, rows, extra = workloads.parse_table(text, "human")
    assert cols == ["label", "xi", "c0"]
    assert rows == [["X1: d/dx", "1", "0"], ["scaling", "x", "0"]]
    assert extra == {"matches_published": "True"}


def test_power_rule_reference():
    # D^{1/2} w = w^{1/2} / Gamma(3/2); D^{1} of a constant is 0
    assert refs.power_rule([(1.0, 1)], 0.5, 4.0) == pytest.approx(2 / 0.886226925452758)
    assert refs.power_rule([(3.0, 0)], 1.0, 2.0) == 0.0
