"""Tests for the benchmark's own helpers: the percentile rule, self-time
subtraction, span nesting, the tracer, and BENCHMARK.json itself.

    python3 -m pytest perfbench
"""

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
from stats import Span  # noqa: E402
from tracer import OP, Tracer, graph_size  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """Advances one unit per reading, so span bounds are predictable."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


# ----- percentile rule ------------------------------------------------------


def test_percentile_is_nearest_rank():
    vals = list(range(1, 11))
    assert stats.percentile(vals, 50) == 5
    assert stats.percentile(vals, 90) == 9
    assert stats.percentile(vals, 100) == 10
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p90_needs_ten_samples_beyond_it():
    assert stats.beyond(list(range(1, 100)), 90) == 9
    assert stats.tail(list(range(1, 100))) is None
    assert stats.tail(list(range(1, 101))) == (90.0, 90)
    # p99 takes over once a thousand samples support it
    assert stats.tail(list(range(1, 1001))) == (99.0, 990)


def test_ties_at_the_percentile_do_not_count_as_beyond():
    vals = [1.0] * 95 + [2.0] * 10
    assert stats.percentile(vals, 90) == 1.0
    assert stats.beyond(vals, 90) == 10
    vals = [1.0] * 90 + [2.0] * 20
    assert stats.percentile(vals, 90) == 2.0
    assert stats.beyond(vals, 90) == 0


def test_summarize_reports_a_tail_only_when_supported():
    small = stats.summarize([3.0, 1.0, 2.0])
    assert small == {"n": 3, "p50": 2.0}
    big = stats.summarize([float(i) for i in range(1, 201)])
    assert big["n"] == 200 and big["p50"] == 100.5 and big["p90"] == 180.0


def test_quartile_spread_uses_statistics_quantiles():
    vals = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.5, 8.5, 10.8]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    assert stats.quartile_spread(vals) == pytest.approx((q3 - q1) / statistics.median(vals))


# ----- self time and nesting ------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("a", 1.0, 5.0, 0, None),
        Span("b", 3.0, 7.0, 0, None),  # overlaps a
        Span("c", 9.0, 12.0, 0, None),  # runs past the parent's end
    ]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_per_op_ignores_spans_outside_operations():
    spans = [
        Span("op", 0.0, 4.0, None, 0),
        Span("x", 1.0, 2.0, 0, 0),
        Span("op", 5.0, 9.0, None, 1),
        Span("x", 6.0, 9.0, 2, 1),
        Span("x", 10.0, 20.0, None, None),
    ]
    per_op = stats.self_time_per_op(spans, 2)
    assert per_op == pytest.approx({"op": (3.0 + 1.0) / 2, "x": (1.0 + 3.0) / 2})


def test_nesting_errors_flag_each_malformation():
    good = [Span("p", 0.0, 5.0, None, 0), Span("c", 1.0, 2.0, 0, 0)]
    assert stats.nesting_errors(good) == []
    outside = [Span("p", 0.0, 5.0, None, 0), Span("c", 4.0, 6.0, 0, 0)]
    assert "outside its parent" in stats.nesting_errors(outside)[0]
    other_op = [Span("p", 0.0, 5.0, None, 0), Span("c", 1.0, 2.0, 0, 1)]
    assert "op 1" in stats.nesting_errors(other_op)[0]
    forward = [Span("c", 1.0, 2.0, 1, None), Span("p", 0.0, 5.0, None, None)]
    assert "not recorded before" in stats.nesting_errors(forward)[0]


# ----- tracer ---------------------------------------------------------------


class Target:
    @staticmethod
    def leaf(x):
        return x + 1

    @staticmethod
    def outer(x):
        return Target.leaf(x) * 2

    @staticmethod
    def boom():
        Target.leaf(0)
        raise RuntimeError("boom")


def test_wrapped_calls_nest_and_restore():
    tracer = Tracer(clock=FakeClock())
    original = Target.__dict__["leaf"]
    tracer.wrap(Target, "leaf", "leaf")
    tracer.wrap(Target, "outer", "outer")
    tracer.begin_op()
    assert Target.outer(1) == 4
    tracer.end_op()
    Target.outer(1)  # outside any operation
    tracer.restore()
    assert Target.__dict__["leaf"] is original

    spans = tracer.finished_spans()
    assert [s.name for s in spans] == [OP, "outer", "leaf", "outer", "leaf"]
    assert [s.parent for s in spans] == [None, 0, 1, None, 3]
    assert [s.op for s in spans] == [0, 0, 0, None, None]
    assert stats.nesting_errors(spans) == []
    assert tracer.n_ops == 1 and len(tracer.op_spans()) == 1


def test_exception_closes_spans_and_keeps_the_tree_well_formed():
    tracer = Tracer(clock=FakeClock())
    tracer.wrap(Target, "leaf", "leaf")
    tracer.wrap(Target, "boom", "boom")
    tracer.begin_op()
    with pytest.raises(RuntimeError):
        Target.boom()
    tracer.end_op()
    tracer.restore()
    spans = tracer.finished_spans()
    assert [s.name for s in spans] == [OP, "boom", "leaf"]
    assert stats.nesting_errors(spans) == []


def test_before_and_after_hooks_run_outside_the_span():
    tracer = Tracer(clock=FakeClock())
    seen = []
    tracer.wrap(Target, "leaf", "leaf",
                before=lambda x: seen.append(("before", tracer.clock())),
                after=lambda r, x: seen.append(("after", r, tracer.clock())))
    Target.leaf(1)
    tracer.restore()
    (span,) = tracer.finished_spans()
    assert seen[0][1] < span.start and seen[1][2] > span.end and seen[1][1] == 2


def test_unwrapped_boundary_and_counts_per_op():
    tracer = Tracer(clock=FakeClock())
    tracer.wrap(Target, "leaf", None, before=lambda x: tracer.count("calls", 1))
    for _ in range(2):
        tracer.begin_op()
        Target.leaf(0)
        Target.leaf(0)
        tracer.end_op()
    Target.leaf(0)
    tracer.restore()
    assert [s.name for s in tracer.finished_spans()] == [OP, OP]
    assert tracer.counts_per_op() == {"calls": 2.0}
    assert tracer.op_start(1) == tracer.finished_spans()[1].start


def test_open_spans_are_an_error_when_listing():
    tracer = Tracer(clock=FakeClock())
    tracer.begin_op()
    with pytest.raises(RuntimeError):
        tracer.finished_spans()


def test_graph_size_counts_grad_nodes_once():
    from tricodec.autodiff import Tensor, add, mul

    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0])  # constant: not a graph node
    c = mul(a, b)
    d = add(c, c)  # c reached twice
    assert graph_size(d) == 3
    assert graph_size(b) == 0


def test_calibrator_samples_at_least_once_and_only_when_due():
    import workloads

    clock = FakeClock()
    cal = workloads.Calibrator(clock)
    cal.run(0.0)
    assert cal.samples == [1.0] and cal.spent > 0
    cal.due()  # a tenth of the time since the last run is less than one sample
    assert len(cal.samples) == 1
    clock.t += 100.0
    cal.due()
    assert len(cal.samples) > 1


# ----- the run's own computations -------------------------------------------


def test_phase_samples_pair_encode_frames_with_quantize():
    import run

    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("model.encode_frames", 0.0, 2.0, 0, 0),
        Span("model.quantize", 2.0, 3.0, 0, 0),
        Span("model.decode_frames", 3.0, 4.5, 0, 0),
        Span("model.encode_frames", 5.0, 6.0, 0, 0),
        Span("model.quantize", 6.0, 6.5, 0, 0),
        Span("model.encode_frames", 20.0, 30.0, None, None),  # outside an operation
    ]
    enc, dec = run.phase_samples(spans)
    assert enc == pytest.approx([3.0, 1.5]) and dec == pytest.approx([1.5])


def test_every_per_layer_time_names_a_wrapped_span():
    import workloads

    spans = {name for _, _, name in workloads.layer_targets()}
    spans |= {"autodiff.backward", "training.adamw"}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name.endswith("_ms") and name != "op.other_ms":
            assert name[: -len("_ms")] in spans, name


# ----- BENCHMARK.json -------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_schema():
    import workloads

    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
