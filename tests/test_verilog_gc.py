"""The front end's collector pause, the invariant behind it, and lazy lines.

``elaborate_source`` parses and elaborates with Python's cyclic garbage
collector paused process-wide.  That is safe only because the front end
builds no reference cycles, so reference counting frees everything it
drops; the tripwire below fails the day it starts building them.  The
token stream counts line numbers only when an error message, indexing or
iteration asks for them.
"""

import gc
import sys
import threading

import pytest

from repro.runtime import compile_source
from repro.verilog import VerilogSyntaxError, elaborate_source, tokenize
from repro.verilog.elaborator import _collector_paused

from tests.oracles.verilog_lexer import tokenize_reference


@pytest.fixture
def collector():
    """Restores the collector's state after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    def test_enabled_stays_enabled(self, collector):
        gc.enable()
        with _collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_disabled_stays_disabled(self, collector):
        gc.disable()
        with _collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_regions_nest(self, collector):
        gc.enable()
        with _collector_paused():
            with _collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_overlapping_threads(self, collector):
        """The collector comes back on only after both regions exit."""
        gc.enable()
        entered = [threading.Event(), threading.Event()]
        leave = [threading.Event(), threading.Event()]
        left = [threading.Event(), threading.Event()]

        def region(i):
            with _collector_paused():
                entered[i].set()
                leave[i].wait(10)
            left[i].set()

        threads = [threading.Thread(target=region, args=(i,)) for i in (0, 1)]
        threads[0].start()
        assert entered[0].wait(10)
        threads[1].start()
        assert entered[1].wait(10)
        leave[0].set()
        assert left[0].wait(10)
        assert not gc.isenabled()
        leave[1].set()
        for thread in threads:
            thread.join(10)
        assert gc.isenabled()

    def test_many_threads(self, collector):
        """A lost update of the depth counter would turn the collector
        back on inside some region, or leave it off after all of them."""
        gc.enable()
        errors = []

        def worker():
            for _ in range(300):
                with _collector_paused():
                    if gc.isenabled():
                        errors.append("collector on inside a region")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert gc.isenabled()

    def test_exception_resumes(self, collector):
        gc.enable()
        with pytest.raises(RuntimeError):
            with _collector_paused():
                raise RuntimeError("inside the region")
        assert gc.isenabled()

    def test_front_end_error_resumes(self, collector):
        gc.enable()
        with pytest.raises(VerilogSyntaxError):
            elaborate_source("module m(input a, output y); assign y = ; endmodule")
        assert gc.isenabled()


def test_front_end_builds_no_cycles(registry_verilog, collector):
    """With the collector off, nothing a compile dropped is left for it."""
    compile_source(registry_verilog["gpio16"])  # lazy imports happen here
    gc.disable()
    gc.collect()
    for name, source in registry_verilog.items():
        compile_source(source)
        assert gc.collect() == 0, name


HEADER = "/* a header comment\n   over three\n   lines */\n"


def plant(source: str, line: int, text: str) -> str:
    """``source`` with line number ``line`` replaced by ``text``."""
    lines = source.split("\n")
    lines[line - 1] = text
    return "\n".join(lines)


@pytest.fixture(scope="module")
def stencil(registry_verilog):
    return HEADER + registry_verilog["stencil16"]


@pytest.mark.parametrize("text, message", [
    ("  wire [7:0] $bad;", "unexpected character '$' at line {line}"),
    ("  assign n1 = 8'b102;", "invalid base-2 literal \"8'b102\" at line {line}"),
    ("  assign n1 = n2 + 4'b12;", "invalid base-2 literal \"4'b12\" at line {line}"),
    ("  wire [7:0] ;", "expected IDENT but found OP (';') at line {line}"),
    ("  assign n1 = n2 n3;", "expected ';' but found 'n3' at line {line}"),
])
def test_deep_error_names_its_line(stencil, text, message):
    line = stencil.count("\n") - 1000
    with pytest.raises(VerilogSyntaxError) as exc:
        elaborate_source(plant(stencil, line, text))
    assert str(exc.value) == message.format(line=line)


def test_stream_indexing_matches_oracle(registry_verilog):
    source = HEADER + registry_verilog["gemm8x8"] + "\n// trailing\n"
    expected = [(t.kind, t.text, t.line) for t in tokenize_reference(source)]
    stream = tokenize(source)
    assert len(stream) == len(expected)
    assert [(t.kind, t.text, t.line) for t in stream] == expected
    assert [(t.kind, t.text, t.line)
            for t in (stream[i] for i in range(len(stream)))] == expected
    assert [(t.kind, t.text, t.line) for t in stream[5:-5:7]] == expected[5:-5:7]
    assert stream[-1].kind == "EOF" and stream[-1].line == expected[-1][2]
