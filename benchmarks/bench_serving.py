"""Serving throughput/latency gates for ``repro.serve`` (alongside Table VIII).

Measures the micro-batcher against the sequential single-request serving
path on the same request stream and asserts the PR-2 acceptance gates:

* **throughput** — coalesced micro-batching must be >= 3x the sequential
  single-request baseline (same model, same requests, same collation path);
* **no-grad serving** — inference allocates no ``.grad`` buffers on any
  parameter and leaves graph recording untouched;
* **equivalence** — the coalesced outputs equal the per-request outputs
  (row-independent model math + one shared noise stream).

Run directly (``PYTHONPATH=src python benchmarks/bench_serving.py``) or via
pytest (``python -m pytest benchmarks/bench_serving.py``).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.baselines import build_method
from repro.nn import is_grad_enabled
from repro.serve import MicroBatcher, PredictRequest, Predictor

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

NUM_REQUESTS = 96
MAX_BATCH = 32
NUM_SAMPLES = 1
MIN_SPEEDUP = 3.0


def make_predictor(seed: int = 0) -> Predictor:
    """An untrained PECNet vanilla method — serving cost is weight-agnostic."""
    return Predictor(build_method("vanilla", "pecnet", num_domains=1, rng=seed))


def make_requests(num: int = NUM_REQUESTS, obs_len: int = 8, seed: int = 1):
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(num):
        obs = np.cumsum(rng.normal(scale=0.3, size=(obs_len, 2)), axis=0)
        neighbours = np.cumsum(
            rng.normal(scale=0.3, size=(i % 4, obs_len, 2)), axis=1
        )
        requests.append(PredictRequest(request_id=i, obs=obs, neighbours=neighbours))
    return requests


def run_stream(predictor: Predictor, requests, max_batch_size: int):
    """Push every request through a fresh batcher; returns (seconds, results)."""
    batcher = MicroBatcher(
        predictor,
        num_samples=NUM_SAMPLES,
        max_batch_size=max_batch_size,
        rng=0,
    )
    start = time.perf_counter()
    handles = [batcher.submit(r) for r in requests]
    for chunk in batcher.take_ready(force=True):
        batcher.run_chunk(chunk)
    elapsed = time.perf_counter() - start
    return elapsed, [h.result() for h in handles]


def bench(blocks: int = 3):
    predictor = make_predictor()
    requests = make_requests()
    # Warm-up both paths (BLAS thread pools, lazy allocations).
    run_stream(predictor, requests[:8], 1)
    run_stream(predictor, requests[:8], 8)

    sequential_s = min(
        run_stream(predictor, requests, 1)[0] for _ in range(blocks)
    )
    batched_s = min(
        run_stream(predictor, requests, MAX_BATCH)[0] for _ in range(blocks)
    )
    return {
        "num_requests": NUM_REQUESTS,
        "max_batch_size": MAX_BATCH,
        "sequential_req_per_s": NUM_REQUESTS / sequential_s,
        "batched_req_per_s": NUM_REQUESTS / batched_s,
        "speedup": sequential_s / batched_s,
    }


# ----------------------------------------------------------------------
# Pytest gates
# ----------------------------------------------------------------------
def test_microbatch_throughput_gate():
    stats = bench()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "bench_serving.json"), "w") as fh:
        json.dump(stats, fh, indent=2)
    assert stats["speedup"] >= MIN_SPEEDUP, (
        f"micro-batched serving only {stats['speedup']:.2f}x over sequential "
        f"(gate: {MIN_SPEEDUP}x): {stats}"
    )


def test_serving_allocates_no_grad_buffers():
    predictor = make_predictor()
    module = predictor.method.module()
    assert is_grad_enabled()
    _, results = run_stream(predictor, make_requests(12), 4)
    assert is_grad_enabled(), "serving leaked the no_grad state"
    assert all(p.grad is None for p in module.parameters()), (
        "inference allocated gradient buffers"
    )
    assert results[0].shape == (NUM_SAMPLES, predictor.pred_len, 2)


def test_coalesced_equals_sequential():
    predictor = make_predictor()
    requests = make_requests(20)
    _, sequential = run_stream(predictor, requests, 1)
    _, batched = run_stream(predictor, requests, MAX_BATCH)
    for a, b in zip(sequential, batched):
        np.testing.assert_allclose(a, b, atol=1e-9)


if __name__ == "__main__":
    stats = bench()
    print(json.dumps(stats, indent=2))
    assert stats["speedup"] >= MIN_SPEEDUP
