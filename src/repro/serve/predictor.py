"""Uniform inference interface over any trained learning method.

A :class:`Predictor` is the serving-side face of a
:class:`~repro.core.method.LearningMethod`: it hides which method/backbone
combination is behind it (AdapTraj, PECNet, LBEBM, baselines) and guarantees
the serving invariants — every forward runs under
:func:`repro.nn.inference_mode` (no autograd graphs, no gradient buffers,
dropout off) and outputs can be asked for in the normalized model frame or
denormalized back to world coordinates.

Compiled fast path
------------------
With ``compile=True`` the predictor routes :meth:`predict` through
:mod:`repro.nn.compile`: the first request for each *shape bucket*
``(num_samples, obs.shape, neighbours.shape)`` captures one eager forward
into a :class:`~repro.nn.compile.Plan` (flat kernel schedule + reusable
buffer arena), validates the plan against the eager path on a perturbed
batch, and caches it.  Subsequent same-shape requests replay the plan —
no per-request graph construction, no per-op allocation.  Plans are
bit-identical to eager (no fusion reorders reductions), so the serving
replay invariant is preserved verbatim.  Any capture or validation failure
permanently disables compilation for this predictor (``compile_stats()``
reports the reason) and every request falls back to the eager path —
compilation is an optimization, never a correctness risk.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.method import LearningMethod
from repro.data.dataset import Batch
from repro.nn.compile import CompileError, Plan, capture
from repro.utils.seeding import new_rng

__all__ = ["Predictor"]

#: Seed for the throwaway generator used while capturing a plan.  The draws
#: made during capture are never served — they only shape the tape — so any
#: fixed value works; fixing it keeps capture deterministic.
_CAPTURE_SEED = 0x5EED
#: Seed for the perturbed-batch validation run (plan vs eager, same seed).
_VALIDATE_SEED = 0xA11CE


def _batch_inputs(batch: Batch) -> dict[str, np.ndarray]:
    """The arrays a captured plan binds per request."""
    return {
        "obs": batch.obs,
        "future": batch.future,
        "neighbours": batch.neighbours,
        "neighbour_mask": batch.neighbour_mask,
        "domain_ids": batch.domain_ids,
        "origins": batch.origins,
    }


class Predictor:
    """Serving wrapper around a trained :class:`LearningMethod`.

    Attributes
    ----------
    method : the wrapped learning method (owns the model weights).
    name / version : registry coordinates when loaded through
        :class:`~repro.serve.registry.ModelRegistry`; ``None`` for ad-hoc
        wrapping.
    compile : when true, :meth:`predict` replays cached execution plans
        (one per padded-shape bucket) instead of re-running the eager
        graph; see the module docstring.
    """

    def __init__(
        self,
        method: LearningMethod,
        name: str | None = None,
        version: int | None = None,
        compile: bool = False,
    ) -> None:
        self.method = method
        self.name = name
        self.version = version
        self._compile = bool(compile)
        self._plans: dict[tuple, Plan] = {}
        self._plan_lock = threading.Lock()
        self._compile_broken: str | None = None
        self._plan_hits = 0
        self._plan_misses = 0
        self._fallbacks = 0
        self._profile = False

    # ------------------------------------------------------------------
    @property
    def obs_len(self) -> int:
        return self.method.backbone.obs_len

    @property
    def pred_len(self) -> int:
        return self.method.backbone.pred_len

    @property
    def compile(self) -> bool:
        return self._compile

    def set_compile(self, enabled: bool) -> None:
        """Toggle the compiled fast path (cached plans are kept)."""
        self._compile = bool(enabled)

    def set_profile(self, enabled: bool) -> None:
        """Toggle per-kernel wall-time profiling on every cached plan.

        Applies to plans built later too.  Profiling adds two clock reads
        per kernel call, so leave it off on the hot path and enable it for
        diagnosis sessions; :meth:`compile_stats` surfaces the aggregates.
        """
        self._profile = bool(enabled)
        with self._plan_lock:
            for plan in self._plans.values():
                plan.set_profile(enabled)

    def compile_stats(self) -> dict:
        """Observability snapshot of the compiled fast path.

        ``plans_detail`` maps each shape-bucket key to that plan's
        :meth:`~repro.nn.compile.Plan.stats` — schedule size, arena bytes,
        run count, and (when :meth:`set_profile` is on) per-kernel wall
        time.
        """
        with self._plan_lock:
            plans = dict(self._plans)
        return {
            "enabled": self._compile,
            "broken": self._compile_broken,
            "plans": len(plans),
            "hits": self._plan_hits,
            "misses": self._plan_misses,
            "fallbacks": self._fallbacks,
            "profile": self._profile,
            "plans_detail": {
                f"samples={key[0]},obs={key[1]},neighbours={key[2]}": plan.stats()
                for key, plan in sorted(plans.items(), key=lambda item: repr(item[0]))
            },
        }

    def describe(self) -> str:
        backbone = type(self.method.backbone).__name__.lower()
        coords = f"{self.name}:v{self.version}" if self.name else "unregistered"
        suffix = ", compiled" if self._compile and self._compile_broken is None else ""
        return (
            f"Predictor({coords}, method={self.method.name}, "
            f"backbone={backbone}{suffix})"
        )

    __repr__ = describe

    # ------------------------------------------------------------------
    # Compiled fast path
    # ------------------------------------------------------------------
    @staticmethod
    def _plan_key(batch: Batch, num_samples: int) -> tuple:
        # Collation pads a batch only to its own largest neighbour count, so
        # there is one plan per distinct ``(rows, neighbours)`` pair served,
        # and the cache never evicts.  Keying off the exact padded shapes
        # keeps the replayed op schedule identical to the captured one, so
        # the RNG consumption per request is too, preserving bit-identity
        # with the eager path for any seed.
        return (num_samples, batch.obs.shape, batch.neighbours.shape)

    def _build_plan(self, batch: Batch, num_samples: int) -> Plan:
        """Capture one eager forward and certify it against the eager path."""
        plan = capture(
            lambda r: self.method.predict(batch, num_samples, r),
            inputs=_batch_inputs(batch),
            rng=np.random.default_rng(_CAPTURE_SEED),
        )
        self._validate_plan(plan, batch, num_samples)
        return plan

    def _validate_plan(self, plan: Plan, batch: Batch, num_samples: int) -> None:
        """Replay the plan on a *perturbed* batch and compare with eager.

        Guards against the frozen-constant hazard: if any input-dependent
        value was computed outside the traced ops during capture, it is
        baked into the plan as a constant and the perturbed replay diverges
        from eager.  Validation runs once per plan, at build time.
        """
        rng = np.random.default_rng(_VALIDATE_SEED)
        flip = rng.random(batch.neighbour_mask.shape) < 0.3
        perturbed = Batch(
            obs=batch.obs + 0.01 * rng.standard_normal(batch.obs.shape),
            future=batch.future,
            neighbours=batch.neighbours
            + 0.01 * rng.standard_normal(batch.neighbours.shape),
            neighbour_mask=batch.neighbour_mask ^ flip,
            domain_ids=batch.domain_ids,
            origins=batch.origins,
        )
        eager = self.method.predict(
            perturbed, num_samples, np.random.default_rng(_VALIDATE_SEED)
        )
        compiled = plan.run(
            _batch_inputs(perturbed), np.random.default_rng(_VALIDATE_SEED)
        )
        if not np.allclose(eager, compiled, rtol=0.0, atol=1e-9):
            diff = float(np.abs(eager - compiled).max())
            raise CompileError(
                f"plan validation failed: compiled replay diverges from eager "
                f"on a perturbed batch (max abs diff {diff:.3e}) — a value "
                f"escaped tracing and froze into the plan"
            )

    def _plan_for(self, batch: Batch, num_samples: int) -> Plan | None:
        """Cached plan for this shape bucket, building on first miss.

        Returns ``None`` (permanently, once broken) when this method's
        forward cannot be captured or fails validation — e.g. the Counter
        baseline post-processes predictions with raw numpy.
        """
        if self._compile_broken is not None:
            return None
        key = self._plan_key(batch, num_samples)
        plan = self._plans.get(key)
        if plan is not None:
            self._plan_hits += 1
            return plan
        with self._plan_lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plan_hits += 1
                return plan
            if self._compile_broken is not None:
                return None
            try:
                plan = self._build_plan(batch, num_samples)
            except CompileError as exc:
                self._compile_broken = str(exc)
                return None
            if self._profile:
                plan.set_profile(True)
            self._plans[key] = plan
            self._plan_misses += 1
            return plan

    # ------------------------------------------------------------------
    def predict(
        self,
        batch: Batch,
        num_samples: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Sampled futures ``[K, B, pred_len, 2]`` in the normalized frame.

        RNG contract: ``rng`` may be a :class:`numpy.random.Generator`, an
        int seed, or ``None``.  An int is expanded via
        :func:`repro.utils.seeding.new_rng` into a fresh generator, so the
        **same int seed always yields bit-identical outputs** for the same
        batch and ``num_samples`` — regardless of call history and of
        whether the compiled fast path served the request.  Passing a
        Generator hands over its (stateful) stream; ``None`` derives a
        fresh default seed.
        """
        gen = new_rng(rng)
        if self._compile:
            plan = self._plan_for(batch, num_samples)
            if plan is not None:
                try:
                    return plan.run(_batch_inputs(batch), gen)
                except CompileError:
                    # Shape/dtype drift inside a bucket (shouldn't happen with
                    # exact-shape keys, but never fail a request over it).
                    self._fallbacks += 1
            else:
                self._fallbacks += 1
        return self.method.predict(batch, num_samples, gen)

    def predict_world(
        self,
        batch: Batch,
        num_samples: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Sampled futures ``[K, B, pred_len, 2]`` in world coordinates."""
        samples = self.predict(batch, num_samples, rng)
        # Undo the per-sample origin translation applied at collate time.
        return samples + batch.origins[None, :, None, :]
