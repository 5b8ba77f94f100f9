"""Open-loop HTTP load generator for the ``serve_mixed`` workload.

Reads a schedule from standard input as JSON::

    {"host": "127.0.0.1", "port": 8000, "connections": 2,
     "requests": [{"due": 0.0213, "body": {...}}, ...]}

and POSTs every body to ``/predict`` at its due time (seconds after the
start), over ``connections`` keep-alive connections, one thread each.
A request waits for a free connection when every connection is busy, so
it can be sent late; its latency is timed from when it was due, which
charges that wait to the system instead of hiding it.  Writes one JSON
document to standard output: per request its status, response body,
lateness (sent minus due) and latency (done minus due), plus the wall
time from start to the last response.

Only the standard library is used, so the generator shares no code
with the server it measures.  ``run_schedule`` is also imported by the
benchmark for its in-process warm-up.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time


def run_schedule(host: str, port: int, requests: list[dict],
                 connections: int) -> dict:
    results: list[dict | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    # Start the clock 50 ms ahead so the first requests are not already
    # late while the worker threads start and connect.
    start = time.perf_counter() + 0.05

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = start + requests[i]["due"]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                body = json.dumps(requests[i]["body"]).encode()
                sent = time.perf_counter()
                conn.request("POST", "/predict", body=body,
                             headers={"content-type": "application/json"})
                response = conn.getresponse()
                data = response.read()
                done = time.perf_counter()
                results[i] = {"status": response.status,
                              "body": json.loads(data),
                              "late_s": sent - due,
                              "latency_s": done - due}
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"results": results,
            "wall_s": time.perf_counter() - start}


if __name__ == "__main__":
    spec = json.load(sys.stdin)
    json.dump(run_schedule(spec["host"], spec["port"], spec["requests"],
                           spec["connections"]), sys.stdout)
