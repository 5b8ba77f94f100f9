"""Tests for ``repro.obs``, the span-and-counter recorder behind every
``--profile``."""

import json
import threading

from repro import obs


def spans(recorder):
    return recorder.as_dict()["spans"]


class TestSpans:
    def test_nesting_and_totals(self, monkeypatch):
        ticks = iter(range(100))
        monkeypatch.setattr(obs, "_clock", lambda: float(next(ticks)))
        with obs.record() as recorder:
            with obs.span("outer"):          # 0 .. 7
                for _ in range(2):
                    with obs.span("inner"):  # 1 .. 2, 3 .. 4
                        pass
                with obs.span("other"):      # 5 .. 6
                    pass
            with obs.span("outer"):          # 8 .. 9
                pass
        assert spans(recorder) == {"outer": {
            "calls": 2, "seconds": 8.0, "children": {
                "inner": {"calls": 2, "seconds": 2.0, "children": {}},
                "other": {"calls": 1, "seconds": 1.0, "children": {}}}}}

    def test_same_name_under_different_parents_stays_apart(self):
        with obs.record() as recorder:
            with obs.span("a"):
                with obs.span("leaf"):
                    pass
            with obs.span("b"):
                with obs.span("leaf"):
                    pass
            with obs.span("leaf"):
                pass
        tree = spans(recorder)
        assert list(tree) == ["a", "b", "leaf"]
        assert tree["a"]["children"]["leaf"]["calls"] == 1
        assert tree["b"]["children"]["leaf"]["calls"] == 1

    def test_exception_still_closes_the_span(self):
        with obs.record() as recorder:
            try:
                with obs.span("fails"):
                    raise ValueError("boom")
            except ValueError:
                pass
            with obs.span("after"):
                pass
        assert list(spans(recorder)) == ["fails", "after"]
        assert spans(recorder)["fails"]["calls"] == 1


class TestCountersAndAdd:
    def test_counters_accumulate(self):
        with obs.record() as recorder:
            obs.count("hits")
            obs.count("hits", 4)
            with obs.span("inner"):
                obs.count("bytes", 10)
        assert recorder.counters == {"hits": 5, "bytes": 10}

    def test_add_credits_a_finished_child(self):
        with obs.record() as recorder:
            with obs.span("build"):
                obs.add("worker", 1.5)
                obs.add("worker", 0.5)
        child = spans(recorder)["build"]["children"]["worker"]
        assert child == {"calls": 2, "seconds": 2.0, "children": {}}


class TestRecording:
    def test_nested_record_captures_only_its_block(self):
        with obs.record() as outer:
            with obs.span("before"):
                pass
            with obs.span("host"):
                with obs.record() as inner:
                    with obs.span("inside"):
                        obs.count("n")
                with obs.span("after"):
                    obs.count("m")
        assert list(spans(inner)) == ["inside"]
        assert inner.counters == {"n": 1}
        assert list(spans(outer)) == ["before", "host"]
        assert list(spans(outer)["host"]["children"]) == ["after"]
        assert outer.counters == {"m": 1}

    def test_nothing_recorded_without_a_recorder(self, monkeypatch):
        def no_clock():
            raise AssertionError("read the clock with recording off")

        monkeypatch.setattr(obs, "_clock", no_clock)
        first = obs.span("a")
        with first, obs.span("b"):
            obs.count("c")
            obs.add("d", 1.0)
        assert obs.span("z") is first          # one shared no-op object
        with obs.record() as recorder:
            pass
        assert recorder.as_dict() == {"spans": {}, "counters": {}}

    def test_thread_without_the_context_records_nothing(self):
        def work():
            with obs.span("in-thread"):
                obs.count("in-thread")

        with obs.record() as recorder:
            with obs.span("main"):
                thread = threading.Thread(target=work)
                thread.start()
                thread.join()
        assert recorder.as_dict() == {
            "spans": {"main": {"calls": 1, "seconds":
                               spans(recorder)["main"]["seconds"],
                               "children": {}}},
            "counters": {}}


class TestOutput:
    def test_format_prints_the_tree_then_counters(self, monkeypatch):
        ticks = iter(range(100))
        monkeypatch.setattr(obs, "_clock", lambda: float(next(ticks)))
        with obs.record() as recorder:
            with obs.span("run"):            # 0 .. 3
                with obs.span("step"):       # 1 .. 2
                    pass
            obs.count("run.steps", 7)
        assert recorder.format().splitlines() == [
            "span         calls    seconds  share",
            "run              1     3.0000  100.0%",
            "  step           1     1.0000   33.3%",
            "counters",
            "run.steps        7",
        ]

    def test_as_dict_is_json(self):
        with obs.record() as recorder:
            with obs.span("a"):
                obs.count("b", 2)
        doc = json.loads(json.dumps(recorder.as_dict()))
        assert doc["spans"]["a"]["calls"] == 1
        assert doc["counters"] == {"b": 2}
