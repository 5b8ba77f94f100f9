"""End-to-end tests for the asyncio prediction server (``repro.serve``).

Each test runs a real :class:`PredictionServer` on a background event
loop (:class:`ServerThread`) and talks to it over actual sockets with
the blocking :class:`ServeClient`, so the HTTP parsing, dispatch,
micro-batching, single-flight, admission control, and metrics paths are
all exercised exactly as the CLI and benchmark drive them.

The serving contract under test:

- ``/predict`` responses are **bit-identical** to direct ``SNS.predict``
  (the engine's batch-composition invariance, carried over HTTP);
- identical concurrent requests **single-flight** into one computation
  and one write of the store's ``prediction`` kind;
- overload answers **429** (token bucket) and **503** (bounded queue)
  and **504** (deadline) instead of collapsing, and ``/metrics``
  reports every rejection.
"""

import base64
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import SNS, CircuitformerConfig, PathSampler, TrainingConfig
from repro.datagen import build_design_dataset
from repro.designs import standard_designs
from repro.runtime import fingerprint_model
from repro.serve import (LatencyHistogram, PredictionServer, ServeClient,
                         ServeConfig, ServerMetrics, ServerThread)
from repro.store import keys
from repro.synth import Synthesizer

TINY_CF = CircuitformerConfig(embedding_size=16, dim_feedforward=32,
                              max_input_size=64)
DESIGN_NAMES = ("gpio16", "conv3x3", "piecewise8")


@pytest.fixture(scope="module")
def tiny_sns():
    synth = Synthesizer(effort="low")
    entries = [e for e in standard_designs() if e.name in DESIGN_NAMES]
    records = build_design_dataset(entries, synth)
    sns = SNS(sampler=PathSampler(k=5, max_paths=40, seed=0),
              circuitformer_config=TINY_CF,
              training_config=TrainingConfig(circuitformer_epochs=2,
                                             aggregator_epochs=30),
              num_aggregators=1)
    sns.fit(records, synthesizer=synth)
    return sns, {e.name: e for e in entries}


def serve(sns, **overrides):
    """A started ServerThread for a fresh server over ``sns``."""
    defaults = dict(max_batch=8, max_wait_ms=5.0, workers=4)
    config = ServeConfig(**{**defaults, **overrides})
    server = PredictionServer(config)
    server.add_model(sns, "default")
    return server, ServerThread(server)


class TestHealthz:
    def test_round_trip_without_model(self):
        """The CI smoke path: bare server, no model, instant answer."""
        server = PredictionServer(ServeConfig())
        with ServerThread(server) as handle:
            client = ServeClient("127.0.0.1", handle.port, timeout=5.0)
            status, doc = client.get("/healthz")
            client.close()
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["models"] == []
        assert doc["uptime_s"] >= 0.0

    def test_unknown_routes(self, tiny_sns):
        sns, _ = tiny_sns
        _, thread = serve(sns)
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port)
            assert client.get("/nope")[0] == 404
            assert client.get("/predict")[0] == 405  # wrong method
            client.close()


class TestPredictParity:
    def test_bit_identical_by_design_name(self, tiny_sns):
        sns, entries = tiny_sns
        _, thread = serve(sns)
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port)
            for name, entry in entries.items():
                status, doc = client.post("/predict", {"design": name})
                assert status == 200, doc
                direct = sns.predict(entry.module)
                assert doc["timing_ps"] == direct.timing_ps
                assert doc["area_um2"] == direct.area_um2
                assert doc["power_mw"] == direct.power_mw
                assert doc["num_paths"] == direct.num_paths
                assert doc["model"] == fingerprint_model(sns)
            client.close()

    def test_bit_identical_by_source(self, tiny_sns):
        from repro.runtime.frontend import compile_source

        sns, _ = tiny_sns
        source = """
        module widget(input [7:0] a, input [7:0] b, output [7:0] y);
          assign y = (a & b) + (a ^ b);
        endmodule
        """
        _, thread = serve(sns)
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port)
            status, doc = client.post("/predict", {"source": source})
            client.close()
        assert status == 200, doc
        direct = sns.predict(compile_source(source))
        assert doc["timing_ps"] == direct.timing_ps
        assert doc["area_um2"] == direct.area_um2
        assert doc["power_mw"] == direct.power_mw

    def test_bad_requests_are_400s(self, tiny_sns):
        sns, _ = tiny_sns
        _, thread = serve(sns)
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port)
            assert client.post("/predict", {})[0] == 400
            assert client.post("/predict", {"design": "nope"})[0] == 400
            assert client.post("/predict", {"source": "module ("})[0] == 400
            assert client.post("/predict", {"design": "gpio16",
                                            "source": "x"})[0] == 400
            assert client.post("/predict", {"design": "gpio16",
                                            "activity": "high"})[0] == 400
            status, _doc = client.post("/predict", {"design": "gpio16",
                                                    "model": "missing"})
            assert status == 404
            client.close()

    def test_bad_activity_coefficients_are_400s(self, tiny_sns):
        """NaN, infinite and negative coefficients name their node and
        are rejected before any batcher exists."""
        sns, entries = tiny_sns
        dffs = entries["gpio16"].module.elaborate().ids_of_type("dff")
        server, thread = serve(sns)
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port)
            for bad in ("nan", "inf", -5.0):
                activity = {str(i): 0.25 for i in dffs}
                activity[str(dffs[-1])] = bad
                status, doc = client.post("/predict", {
                    "design": "gpio16", "activity": activity})
                assert status == 400, doc
                assert f"node {dffs[-1]}" in doc["error"]
            client.close()
        assert server._batchers == {}

    def test_activity_map_bit_identical(self, tiny_sns):
        sns, entries = tiny_sns
        module = entries["gpio16"].module
        activity = {i: 0.05 + 0.01 * k for k, i in
                    enumerate(module.elaborate().ids_of_type("dff"))}
        _, thread = serve(sns)
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port)
            status, doc = client.post("/predict", {
                "design": "gpio16",
                "activity": {str(i): v for i, v in activity.items()}})
            client.close()
        assert status == 200, doc
        direct = sns.predict(module, activity=activity)
        assert (doc["timing_ps"], doc["area_um2"], doc["power_mw"]) == (
            direct.timing_ps, direct.area_um2, direct.power_mw)

    def test_precision_other_than_fp64_is_400(self, tiny_sns):
        """The server runs fp64 only: any other precision is rejected by
        name, and rejected requests create no extra batcher."""
        sns, _ = tiny_sns
        server, thread = serve(sns)
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port)
            assert client.post("/predict", {"design": "gpio16",
                                            "precision": "fp64"})[0] == 200
            for precision in ("fp32", "int8", "fp32"):
                status, doc = client.post("/predict", {
                    "design": "gpio16", "precision": precision})
                assert status == 400, doc
                assert "precision" in doc["error"]
            client.close()
        assert list(server._batchers) == ["default"]


class TestSingleFlight:
    def test_identical_concurrent_requests_compute_once(self, tiny_sns):
        """N identical in-flight requests share one computation and
        exactly one write of the store's ``prediction`` kind."""
        sns, _ = tiny_sns
        server, thread = serve(sns, max_wait_ms=1.0)
        served = server.registry.get("default")

        engine = served.predictor
        compute_calls = []
        entered = threading.Event()
        real_predict = engine.predict_batch

        def slow_predict(graphs, activity_maps=None):
            compute_calls.append(len(graphs))
            entered.set()
            time.sleep(0.5)        # hold the burst in flight
            return real_predict(graphs, activity_maps=activity_maps)

        engine.predict_batch = slow_predict

        puts_before = served.store.counters(("prediction",))["puts"]

        with thread as handle:
            results = []

            def one(i):
                client = ServeClient("127.0.0.1", handle.port,
                                     client_id=f"c{i}")
                results.append(client.post("/predict", {"design": "gpio16"}))
                client.close()

            first = threading.Thread(target=one, args=(0,))
            first.start()
            assert entered.wait(timeout=30.0)  # leader is inside the compute
            rest = [threading.Thread(target=one, args=(i,))
                    for i in range(1, 6)]
            for t in rest:
                t.start()
            for t in [first] + rest:
                t.join()

            probe = ServeClient("127.0.0.1", handle.port)
            _, metrics = probe.get("/metrics")
            probe.close()

        assert [status for status, _ in results] == [200] * 6
        docs = [doc for _, doc in results]
        assert all(doc == docs[0] for doc in docs)       # shared result
        assert compute_calls == [1]                      # one computation
        assert served.store.counters(("prediction",))["puts"] \
            == puts_before + 1                           # one cache store
        assert metrics["single_flight_hits"] == 5

    def test_repeat_after_completion_is_a_cache_hit(self, tiny_sns):
        sns, _ = tiny_sns
        server, thread = serve(sns)
        served = server.registry.get("default")
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port)
            first = client.post("/predict", {"design": "conv3x3"})
            hits_before = served.store.counters(("prediction",))["memory_hits"]
            second = client.post("/predict", {"design": "conv3x3"})
            client.close()
        assert first == second
        assert served.store.counters(("prediction",))["memory_hits"] \
            > hits_before


class TestAdmission:
    def test_rate_limit_429_and_metrics(self, tiny_sns):
        sns, _ = tiny_sns
        # Each client's bucket holds max(1, rate) = 2 tokens.
        _, thread = serve(sns, rate_limit=2.0)
        with thread as handle:
            # Warm compile + prediction caches from an unmetered client so
            # the greedy burst below is near-instant (no token refill).
            warm = ServeClient("127.0.0.1", handle.port, client_id="calm")
            assert warm.post("/predict", {"design": "gpio16"})[0] == 200

            client = ServeClient("127.0.0.1", handle.port,
                                 client_id="greedy")
            statuses = [client.post("/predict", {"design": "gpio16"})[0]
                        for _ in range(6)]
            # The calm client's bucket is untouched (per-client buckets).
            assert warm.post("/predict", {"design": "gpio16"})[0] == 200
            _, metrics = warm.get("/metrics")
            client.close()
            warm.close()
        assert statuses.count(200) == 2
        assert statuses.count(429) == 4
        assert metrics["endpoints"]["predict"]["rejected_rate_limit"] == 4

    def test_queue_full_503_and_metrics(self, tiny_sns):
        """With the queue bounded and workers pinned, overload sheds."""
        sns, _ = tiny_sns
        server, thread = serve(sns, max_batch=1, max_queue=1, workers=2,
                               max_wait_ms=0.5)
        release = threading.Event()
        names = ["gpio16", "conv3x3", "piecewise8"]
        with thread as handle:
            # First request creates the model's batcher...
            setup = ServeClient("127.0.0.1", handle.port, client_id="setup")
            assert setup.post("/predict", {"design": "gpio16"})[0] == 200
            batcher = server._batchers["default"]

            # ...then gate it at the async layer (off the worker pool, so
            # later requests can still compile and reach admission).
            real_run_batch = batcher.run_batch

            async def gated_run_batch(payloads):
                import asyncio

                await asyncio.get_running_loop().run_in_executor(
                    None, lambda: release.wait(timeout=30.0))
                return await real_run_batch(payloads)

            batcher.run_batch = gated_run_batch

            # Two requests saturate the worker slots, the third fills the
            # one-deep queue, the fourth must shed.
            results = {}

            def one(name, i):
                client = ServeClient("127.0.0.1", handle.port,
                                     client_id=f"q{i}", timeout=30.0)
                results[name] = client.post("/predict", {"design": name})
                client.close()

            threads = []
            for i, name in enumerate(names):
                t = threading.Thread(target=one, args=(name, i))
                t.start()
                threads.append(t)
                time.sleep(0.3)    # let it compile, submit, and occupy

            probe = ServeClient("127.0.0.1", handle.port, client_id="late")
            status, doc = probe.post("/predict", {"design": "gpio32"})
            assert status == 503, doc

            release.set()
            for t in threads:
                t.join()
            _, metrics = probe.get("/metrics")
            probe.close()

        assert [s for s, _ in results.values()] == [200] * 3
        assert metrics["endpoints"]["predict"]["rejected_queue_full"] >= 1

    def test_timeout_504_and_metrics(self, tiny_sns):
        sns, _ = tiny_sns
        server, thread = serve(sns, request_timeout_s=0.2)
        served = server.registry.get("default")
        engine = served.predictor
        real_predict = engine.predict_batch
        stall = threading.Event()

        def slow_predict(graphs, activity_maps=None):
            stall.wait(timeout=2.0)
            return real_predict(graphs, activity_maps=activity_maps)

        engine.predict_batch = slow_predict

        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port)
            t0 = time.monotonic()
            status, doc = client.post("/predict", {"design": "gpio16"})
            waited = time.monotonic() - t0
            stall.set()
            _, metrics = client.get("/metrics")
            client.close()
        assert status == 504, doc
        assert waited < 1.5        # the deadline answered, not the stall
        assert metrics["endpoints"]["predict"]["timeouts"] == 1


class TestMetricsAndBatching:
    def test_metrics_shape_and_batch_counters(self, tiny_sns):
        sns, _ = tiny_sns
        _, thread = serve(sns, max_wait_ms=10.0)
        bodies = [{"design": n} for n in DESIGN_NAMES] * 4
        with thread as handle:
            def drive(share):
                client = ServeClient("127.0.0.1", handle.port)
                statuses = [client.post("/predict", body)[0] for body in share]
                client.close()
                return statuses

            with ThreadPoolExecutor(4) as pool:
                statuses = [status for share in pool.map(
                    drive, [bodies[i::4] for i in range(4)])
                    for status in share]
            client = ServeClient("127.0.0.1", handle.port)
            _, metrics = client.get("/metrics")
            client.close()

        assert statuses == [200] * len(bodies)
        predict = metrics["endpoints"]["predict"]
        assert predict["requests"] == len(bodies)
        assert predict["ok"] == len(bodies)
        assert predict["latency"]["count"] == len(bodies)
        assert predict["latency"]["p50_ms"] <= predict["latency"]["p99_ms"]

        batching = metrics["batching"]
        assert batching["batched_requests"] >= 1
        assert batching["batches"] >= 1
        assert batching["mean_batch_size"] >= 1.0
        assert set(batching["flush_reasons"]) <= {"size", "deadline"}
        assert metrics["queue_depth"] == 0
        assert metrics["config"]["max_batch"] == 8
        assert "default" in metrics["registry"]["models"]

        # The shared-store aggregation: per-tier hit counters and rates.
        store = metrics["store"]
        assert set(store["tiers"]) == {"object", "memory", "persistent"}
        for tier in store["tiers"].values():
            assert tier["hits"] >= 0
            assert 0.0 <= tier["hit_rate"] <= 1.0
        assert 0.0 <= store["hit_rate"] <= 1.0
        assert "prediction" in store["kinds"]

    def test_concurrent_requests_coalesce_into_one_batch(self, tiny_sns):
        """Distinct requests inside one batching window share a flush."""
        sns, _ = tiny_sns
        _, thread = serve(sns, max_wait_ms=150.0, max_batch=8)
        with thread as handle:
            warm = ServeClient("127.0.0.1", handle.port)
            for name in DESIGN_NAMES:      # warm compile + cache tiers
                assert warm.post("/predict", {"design": name})[0] == 200
            batches_before = warm.get("/metrics")[1]["batching"]["batches"]

            barrier = threading.Barrier(len(DESIGN_NAMES))
            results = []

            def one(name):
                client = ServeClient("127.0.0.1", handle.port)
                barrier.wait()
                results.append(client.post("/predict", {"design": name}))
                client.close()

            threads = [threading.Thread(target=one, args=(n,))
                       for n in DESIGN_NAMES]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            _, metrics = warm.get("/metrics")
            warm.close()

        assert [s for s, _ in results] == [200] * len(DESIGN_NAMES)
        # Cached compiles land all three submissions well inside the
        # 150 ms window: one deadline flush carries multiple requests.
        assert metrics["batching"]["max_batch_size"] >= 2
        assert metrics["batching"]["batches"] > batches_before


class TestMetricsPercentiles:
    def test_nearest_rank_percentiles_on_fixed_samples(self):
        """Pins the latency histogram's and ``/metrics`` batching's
        nearest-rank percentiles (ties round half to even)."""
        histogram = LatencyHistogram()
        for ms in (7, 3, 10, 1, 5, 9, 2, 8, 4, 6):
            histogram.observe(ms / 1e3)
        doc = histogram.as_dict()
        assert (doc["p50_ms"], doc["p90_ms"], doc["p99_ms"], doc["max_ms"]) \
            == pytest.approx((5.0, 9.0, 10.0, 10.0), rel=1e-12)
        assert LatencyHistogram().as_dict()["p99_ms"] == 0.0

        metrics = ServerMetrics()
        for size in (1, 4, 2, 8, 3, 16):
            metrics.observe_batch(size, "size")
        batching = metrics.as_dict()["batching"]
        assert batching["p50_batch_size"] == 3.0
        assert batching["max_batch_size"] == 16.0


class TestCorruptStoredModel:
    """A broken ``model`` row in the store is a 500 that names the row."""

    FP = "0123456789abcdef" * 4

    @pytest.mark.parametrize("archive, reason", [
        ({}, "no data_b64 string"),
        ({"data_b64": "!!!"}, "data_b64 is not valid base64"),
        ({"data_b64": base64.b64encode(b"not an archive").decode()},
         "not an .npz archive"),
    ], ids=["no-data", "not-base64", "not-an-archive"])
    def test_predict_names_the_artifact(self, tiny_sns, tmp_path, archive,
                                        reason):
        sns, _ = tiny_sns
        server, thread = serve(sns, cache_dir=str(tmp_path / "store"))
        server.registry.store.put(
            "model", keys.model_key(self.FP),
            {"format": "sns-npz-b64", "version": 1, "meta": {}, **archive})
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port)
            status, doc = client.post("/predict", {"design": "gpio16",
                                                   "model": self.FP})
            after, _ = client.post("/predict", {"design": "gpio16"})
            client.close()
        assert status == 500, doc
        assert doc["error"].startswith(
            f"ModelFileError: cannot load model model/{self.FP}: {reason}"), doc
        assert after == 200


class TestStaleness:
    def test_weight_mutation_rekeys_served_model(self, tiny_sns):
        """In-place fine-tuning is detected per request, not served stale."""
        sns, _ = tiny_sns
        server, thread = serve(sns)
        param = sns.circuitformer.parameters()[0]
        original = param.data.copy()
        try:
            with thread as handle:
                client = ServeClient("127.0.0.1", handle.port)
                _, before = client.post("/predict", {"design": "gpio16"})
                param.data = original + 1e-6   # "fine-tune" in place
                _, after = client.post("/predict", {"design": "gpio16"})
                param.data = original.copy()   # restore the shared model
                _, restored = client.post("/predict", {"design": "gpio16"})
                client.close()
            assert after["model"] != before["model"]
            assert restored["model"] == before["model"]
            assert restored["timing_ps"] == before["timing_ps"]
        finally:
            param.data = original


class TestShutdown:
    def test_idle_connection_does_not_hold_the_drain(self, tiny_sns):
        """``stop`` drops an idle keep-alive client at once and waits only
        for the request in flight, which still gets its answer."""
        sns, _ = tiny_sns
        server = PredictionServer(ServeConfig(max_batch=8, max_wait_ms=5.0))
        server.add_model(sns, "default")
        engine = server.registry.get("default").predictor
        real_predict = engine.predict_batch
        entered = threading.Event()

        def slow_predict(graphs, activity_maps=None):
            entered.set()
            time.sleep(1.0)
            return real_predict(graphs, activity_maps=activity_maps)

        engine.predict_batch = slow_predict
        handle = ServerThread(server, drain_timeout=5.0).start()
        idle = ServeClient("127.0.0.1", handle.port)
        assert idle.get("/healthz")[0] == 200   # socket left open
        answer = {}

        def slow_request():
            client = ServeClient("127.0.0.1", handle.port)
            answer["status"], _ = client.post("/predict", {"design": "gpio16"})
            answer["at"] = time.monotonic()
            client.close()

        worker = threading.Thread(target=slow_request)
        worker.start()
        assert entered.wait(timeout=30.0)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        sock = idle._conn.sock
        sock.settimeout(30.0)
        assert sock.recv(1) == b""              # the server hung up
        idle_closed = time.monotonic()
        stopper.join(timeout=30.0)
        stopped = time.monotonic()
        worker.join(timeout=30.0)
        idle.close()
        assert not stopper.is_alive() and not worker.is_alive()
        assert answer["status"] == 200
        assert idle_closed < answer["at"]
        assert stopped - answer["at"] < 1.0


class TestCli:
    def test_serve_cli_round_trip_and_sigint_drain(self, tiny_sns, tmp_path):
        """`repro serve` boots from an .npz, serves, and drains on SIGINT."""
        import signal
        import subprocess
        import sys

        from repro.core import save_sns

        sns, _ = tiny_sns
        model_path = tmp_path / "model.npz"
        save_sns(sns, model_path)

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(model_path),
             "--port", "0", "--max-batch", "8", "--max-wait-ms", "5",
             "--rate-limit", "500", "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving on http://"), line
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

            client = ServeClient("127.0.0.1", port, timeout=120.0)
            status, health = client.get("/healthz")
            assert status == 200 and "default" in health["models"]
            status, doc = client.post("/predict", {"design": "gpio16"})
            client.close()
            assert status == 200 and doc["timing_ps"] > 0

            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "draining in-flight requests" in out
        assert "server stopped" in out


class TestTrainAndDse:
    def test_train_then_predict_on_new_model(self, tiny_sns):
        sns, _ = tiny_sns
        _, thread = serve(sns, request_timeout_s=600.0)
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port, timeout=600.0)
            status, doc = client.post("/train", {
                "designs": ["gpio16", "conv3x3"],
                "circuitformer_epochs": 1, "aggregator_epochs": 5,
                "max_paths": 20, "name": "student"})
            assert status == 200, doc
            assert doc["name"] == "student"
            assert doc["designs"] == 2

            # Address the new model by name and by fingerprint prefix.
            st_by_name, by_name = client.post(
                "/predict", {"design": "gpio16", "model": "student"})
            st_by_fp, by_fp = client.post(
                "/predict", {"design": "gpio16", "model": doc["model"][:12]})
            _, health = client.get("/healthz")
            client.close()
        assert st_by_name == 200 and st_by_fp == 200
        assert by_name == by_fp
        assert by_name["model"] == doc["model"]
        assert "student" in health["models"]

    def test_train_disabled_is_404(self, tiny_sns):
        sns, _ = tiny_sns
        _, thread = serve(sns, allow_train=False)
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port)
            status, _doc = client.post("/train", {"designs": ["gpio16"]})
            client.close()
        assert status == 404

    def test_malformed_numbers_are_400(self, tiny_sns):
        # Each answers 400 naming its field before any sweep or training
        # job starts: nothing is synthesized and no model is added.
        cases = [("/dse", {"budget": "abc"}, "budget"),
                 ("/dse", {"budget": None}, "budget"),
                 ("/dse", {"chunk": 0}, "chunk"),
                 ("/dse", {"fidelity": "nan"}, "fidelity"),
                 ("/dse", {"fidelity": 0}, "fidelity"),
                 ("/dse", {"fidelity": 1.5}, "fidelity"),
                 ("/dse", {"seed": "x"}, "seed"),
                 ("/dse", {"seed": "inf"}, "seed"),
                 ("/train", {"circuitformer_epochs": "two"},
                  "circuitformer_epochs"),
                 ("/train", {"aggregator_epochs": 0}, "aggregator_epochs"),
                 ("/train", {"max_paths": -5}, "max_paths"),
                 ("/train", {"designs": ["gpio16"]}, "designs")]
        sns, _ = tiny_sns
        _, thread = serve(sns)
        answers = []
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port, timeout=60.0)
            for path, body, field in cases:
                if path == "/train":
                    body = {"designs": ["gpio16", "conv3x3"], **body}
                status, doc = client.post(path, body)
                answers.append((path, field, status, doc.get("error", "")))
            _, health = client.get("/healthz")
            client.close()
        for path, field, status, error in answers:
            assert status == 400 and field in error, (path, field, status,
                                                      error)
        assert health["models"] == ["default"]

    def test_too_few_paths_is_400(self, tiny_sns):
        # max_paths 1 samples 2 distinct paths from these two designs and
        # the Circuitformer needs 4: the job answers 400 naming the field,
        # as it does for unknown designs, and adds no model.
        sns, _ = tiny_sns
        _, thread = serve(sns, request_timeout_s=600.0)
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port, timeout=600.0)
            status, doc = client.post("/train", {
                "designs": ["gpio16", "conv3x3"], "max_paths": 1})
            _, health = client.get("/healthz")
            client.close()
        assert status == 400 and "max_paths" in doc["error"], doc
        assert health["models"] == ["default"]

    def test_dse_endpoint(self, tiny_sns):
        sns, _ = tiny_sns
        _, thread = serve(sns, request_timeout_s=600.0)
        with thread as handle:
            client = ServeClient("127.0.0.1", handle.port, timeout=600.0)
            status, doc = client.post("/dse", {"budget": 12, "seed": 1})
            bad, _ = client.post("/dse", {"space": "galaxy"})
            client.close()
        assert status == 200, doc
        assert bad == 400
        assert doc["explored"] >= 1
        assert doc["candidates"] >= doc["explored"]
        assert doc["front_size"] >= 1
        explore = doc["profile"]["spans"]["dse.explore"]
        assert explore["calls"] == 1 and "dse.evaluate" in explore["children"]
        for corner in ("high_perf", "power_eff", "area_eff"):
            point = doc[corner]
            assert point["timing_ps"] > 0
            assert set(point) == {"name", "params", "score", "timing_ps",
                                  "area_um2", "power_mw"}
