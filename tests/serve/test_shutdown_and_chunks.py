"""Shutdown semantics and the batcher's flush chunks.

A shut-down batcher/engine must terminate every pending request with
:class:`ServingClosedError` instead of hanging waiters, shutdown must be
idempotent and exception-safe, and the ``take_ready`` / ``run_chunk``
scheduling API must preserve coalescing and the per-flush RNG replay
contract the network gate relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    MicroBatcher,
    Predictor,
    PredictRequest,
    ServingClosedError,
    ServingEngine,
    collate_requests,
)


class FakeClock:
    """Manually-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class StubPredictor:
    """Deterministic row-wise predictor (velocity extrapolation)."""

    pred_len = 12
    obs_len = 8

    def predict_world(self, batch, num_samples, rng):
        velocity = batch.obs[:, -1] - batch.obs[:, -2]
        steps = np.arange(1, self.pred_len + 1)[None, :, None]
        future = batch.obs[:, -1][:, None, :] + velocity[:, None, :] * steps
        world = future + batch.origins[:, None, :]
        return np.repeat(world[None], num_samples, axis=0)


class TestShutdown:
    def test_pending_requests_get_terminal_error(self, request_factory):
        batcher = MicroBatcher(StubPredictor(), max_batch_size=8, clock=FakeClock())
        handles = [batcher.submit(request_factory(i)) for i in range(3)]
        assert not any(h.done for h in handles)
        assert batcher.shutdown() == 3
        for handle in handles:
            assert handle.done  # a poller loop terminates immediately
            assert isinstance(handle.error, ServingClosedError)
            with pytest.raises(ServingClosedError):
                handle.result()

    def test_shutdown_is_idempotent(self, request_factory):
        batcher = MicroBatcher(StubPredictor(), max_batch_size=8, clock=FakeClock())
        batcher.submit(request_factory(0))
        assert batcher.shutdown() == 1
        assert batcher.shutdown() == 0
        assert batcher.shutdown() == 0
        assert batcher.closed

    def test_submit_after_shutdown_raises(self, request_factory):
        batcher = MicroBatcher(StubPredictor(), max_batch_size=8, clock=FakeClock())
        batcher.shutdown()
        with pytest.raises(ServingClosedError):
            batcher.submit(request_factory(0))

    def test_completed_results_survive_shutdown(self, request_factory):
        """Shutdown fails *pending* work only; delivered results stay valid."""
        batcher = MicroBatcher(StubPredictor(), max_batch_size=2, clock=FakeClock())
        done = [batcher.submit(request_factory(i)) for i in range(2)]
        late = batcher.submit(request_factory(2))
        (chunk,) = batcher.take_ready(allow_partial=False)
        batcher.run_chunk(chunk)
        batcher.shutdown()
        assert all(h.error is None for h in done)
        assert done[0].result().shape == (1, 12, 2)
        assert isinstance(late.error, ServingClosedError)

    def test_shutdown_after_failed_flush_is_exception_safe(self, request_factory):
        """Shutdown after a failed chunk fails only what is still queued, and
        never overwrites the chunk's terminal error."""

        class FailingPredictor(StubPredictor):
            def predict_world(self, batch, num_samples, rng):
                raise RuntimeError("backend down")

        batcher = MicroBatcher(FailingPredictor(), max_batch_size=8, clock=FakeClock())
        failed = [batcher.submit(request_factory(i)) for i in range(2)]
        (chunk,) = batcher.take_ready(force=True)
        with pytest.raises(RuntimeError, match="backend down"):
            batcher.run_chunk(chunk)
        queued = batcher.submit(request_factory(2))
        assert batcher.shutdown() == 1
        assert all(isinstance(h.error, RuntimeError) for h in failed)
        assert isinstance(queued.error, ServingClosedError)

    def test_engine_shutdown_idempotent_and_rejecting(self, predictor):
        engine = ServingEngine(predictor, num_samples=1, max_batch_size=64, rng=0)
        rng = np.random.default_rng(0)
        for frame in range(predictor.obs_len):
            engine.ingest_frame(
                frame, {a: tuple(rng.normal(size=2)) for a in ("a", "b")}
            )
        handles = engine.submit_ready(predictor.obs_len - 1)
        assert handles
        assert engine.shutdown() == len(handles)
        assert engine.closed
        assert engine.shutdown() == 0
        for handle in handles:
            with pytest.raises(ServingClosedError):
                handle.result()
        # New traffic can still be ingested, but predictions are refused.
        engine.ingest_frame(0, {"c": (0.0, 0.0)})
        for frame in range(1, predictor.obs_len):
            engine.ingest_frame(frame, {"c": (float(frame), 0.0)})
        with pytest.raises(ServingClosedError):
            engine.submit_ready(predictor.obs_len - 1)


class TestExternalFlushChunks:
    def make_batcher(self, clock=None, **kwargs):
        kwargs.setdefault("max_batch_size", 4)
        kwargs.setdefault("max_wait", 0.05)
        return MicroBatcher(StubPredictor(), clock=clock or FakeClock(), **kwargs)

    def test_submit_only_queues(self, request_factory):
        batcher = self.make_batcher()
        handles = [batcher.submit(request_factory(i)) for i in range(6)]
        assert not any(h.done for h in handles)
        assert batcher.pending_count == 6

    def test_take_ready_pops_full_chunks_and_due_partial(self, request_factory):
        clock = FakeClock()
        batcher = self.make_batcher(clock=clock)
        for i in range(6):
            batcher.submit(request_factory(i))
        chunks = batcher.take_ready()
        assert [c.size for c in chunks] == [4]  # partial not due yet
        clock.advance(0.06)
        chunks += batcher.take_ready()
        assert [c.size for c in chunks] == [4, 2]
        assert [c.batch_id for c in chunks] == [0, 1]
        assert batcher.pending_count == 0

    def test_allow_partial_false_defers_stragglers(self, request_factory):
        clock = FakeClock()
        batcher = self.make_batcher(clock=clock, max_wait=0.0)
        batcher.submit(request_factory(0))
        # Model busy: the scheduler refuses partial pops, the single waits...
        assert batcher.take_ready(allow_partial=False) == []
        batcher.submit(request_factory(1))
        batcher.submit(request_factory(2))
        # ...and when the model frees up, the backlog coalesces into one batch.
        [chunk] = batcher.take_ready()
        assert chunk.size == 3

    def test_force_pops_everything(self, request_factory):
        batcher = self.make_batcher(max_wait=100.0)
        for i in range(5):
            batcher.submit(request_factory(i))
        chunks = batcher.take_ready(force=True)
        assert [c.size for c in chunks] == [4, 1]

    def test_run_chunk_fulfils_handles(self, request_factory):
        batcher = self.make_batcher()
        handles = [batcher.submit(request_factory(i)) for i in range(4)]
        [chunk] = batcher.take_ready()
        completed = batcher.run_chunk(chunk)
        assert completed == handles
        assert all(h.done and h.error is None for h in handles)
        assert batcher.total_batches == 1
        assert batcher.mean_batch_size == 4.0

    def test_run_chunk_failure_is_terminal(self, request_factory):
        class FlakyPredictor(StubPredictor):
            def predict_world(self, batch, num_samples, rng):
                raise RuntimeError("boom")

        batcher = MicroBatcher(FlakyPredictor(), max_batch_size=4, clock=FakeClock())
        handles = [batcher.submit(request_factory(i)) for i in range(2)]
        [chunk] = batcher.take_ready(force=True)
        with pytest.raises(RuntimeError, match="boom"):
            batcher.run_chunk(chunk)
        # A failed chunk is never requeued: the error is terminal, so the
        # waiting clients get an answer instead of a poisoned batch retrying
        # forever.
        assert batcher.pending_count == 0
        for handle in handles:
            assert isinstance(handle.error, RuntimeError)
            with pytest.raises(RuntimeError, match="boom"):
                handle.result()
        assert batcher.total_failed == 2


class TestPerFlushRngReplay:
    def test_batches_replay_from_seed_and_batch_id(self, trained_vanilla, request_factory):
        """The network gate's contract: a served batch is reproducible from
        (seed_per_flush, batch_id) and its request payloads alone."""
        predictor = Predictor(trained_vanilla)
        batcher = MicroBatcher(
            predictor,
            num_samples=2,
            max_batch_size=3,
            seed_per_flush=123,
        )
        requests = [request_factory(i, num_neighbours=i % 3) for i in range(5)]
        handles = [batcher.submit(r) for r in requests]
        chunks = batcher.take_ready(force=True)
        # Execute out of order — per-flush derivation makes order irrelevant.
        for chunk in reversed(chunks):
            batcher.run_chunk(chunk)
        for chunk in chunks:
            batch = collate_requests(
                [h.request for h in chunk.handles], pred_len=predictor.pred_len
            )
            offline = predictor.predict_world(
                batch, 2, np.random.default_rng((123, chunk.batch_id))
            )
            for row, handle in enumerate(chunk.handles):
                np.testing.assert_allclose(handle.result(), offline[:, row], atol=1e-9)
        assert all(h.done for h in handles)
