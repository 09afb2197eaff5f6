"""Workload ``serve``: one closed-loop binary client streams sdd to a server.

Inputs: ``SCENES`` independent recordings of the unseen ``sdd`` domain, each
simulated past ``WARMUP_FRAMES`` so it starts at its steady crowd (~28
agents per frame).  Several short scenes rather than one long one keep the
crowd size, and so the per-frame work, nearly the same for every seed.

Set-up publishes a seeded, untrained AdapTraj-PECNet to a private registry,
starts ``python -m repro.serve.server --compile`` on it in its own process,
and streams one scene through a first connection so lazy plan compilation
is paid there.  The first set-up's server is the one measured; the other
``SETUPS - 1`` repeats run between rounds on spare servers that are stopped
at once, so one slow stretch of the host cannot cover every repeat.
A round streams every scene once over the measuring connection: for each
frame an ``observe`` then a frame-mode ``predict``.
"""

from __future__ import annotations

import itertools
import os
import selectors
import signal
import subprocess
import sys
import time

import numpy as np

from common import Outcome, median, peak_rss_mb, robust_round_seconds, tail_percentile
import oracles

DOMAIN = "sdd"
SCENES = 16
FRAMES = 24
WARMUP_FRAMES = 150
OBS_LEN = 8
PRED_LEN = 12
NUM_SAMPLES = 3
NUM_SOURCE_DOMAINS = 3
MODEL = "adaptraj-pecnet"
SETUPS = 5
#: Wire frames between two scenes: a gap resets every streaming window.
SCENE_SPAN = FRAMES + OBS_LEN
ROUND_SPAN = SCENES * SCENE_SPAN
#: Served frames whose batches are replayed offline: one per scene.
REPLAY_FRAME = FRAMES // 2
STAGES = ("queue_wait", "coalesce", "inference")


class Frame:
    """One scene frame as streamed: positions sent, agents expected back."""

    def __init__(self, scene: int, frame: int, positions: dict, ready: list, windows: dict):
        self.scene = scene
        self.frame = frame
        self.offset = scene * SCENE_SPAN + frame
        self.positions = positions  # agent id -> (x, y)
        self.ready = ready  # ids the oracle says are predictable, first-seen order
        self.windows = windows  # ready id -> [OBS_LEN, 2] observed window


def make_plan(seed: int) -> list[Frame]:
    from repro.sim import get_domain, simulate_scene
    from repro.utils.seeding import new_rng, spawn_rng

    domain = get_domain(DOMAIN)
    plan = []
    for i, rng in enumerate(spawn_rng(new_rng(seed), SCENES)):
        scene = simulate_scene(domain, FRAMES, scene_id=i, rng=rng, warmup_frames=WARMUP_FRAMES)
        seen: dict[str, None] = {}
        for f in range(FRAMES):
            positions = {}
            for track in scene.tracks:
                if track.start_frame <= f < track.start_frame + len(track.positions):
                    agent = f"{i}:{track.agent_id}"
                    seen.setdefault(agent)
                    positions[agent] = tuple(track.positions[f - track.start_frame])
            ready_ids = {f"{i}:{a}" for a in oracles.ready_agents(scene.tracks, f, OBS_LEN)}
            ready = [agent for agent in seen if agent in ready_ids]
            windows = {}
            for track in scene.tracks:
                agent = f"{i}:{track.agent_id}"
                if agent in ready_ids:
                    offset = f - track.start_frame
                    windows[agent] = track.positions[offset - OBS_LEN + 1 : offset + 1]
            plan.append(Frame(i, f, positions, ready, windows))
    return plan


def frame_requests(entry: Frame, order: list) -> list:
    """Offline ``PredictRequest``s for ``order`` (a subset of the ready
    agents); each agent's neighbours are the other ready agents' windows."""
    from repro.serve import PredictRequest

    requests = []
    for agent in order:
        others = [entry.windows[a] for a in entry.ready if a != agent]
        neighbours = np.stack(others) if others else None
        requests.append(PredictRequest(agent, entry.windows[agent], neighbours))
    return requests


class Server:
    """``python -m repro.serve.server`` on a private registry, in its own process."""

    def __init__(self, registry: str, seed: int, log_path: str) -> None:
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve.server",
                "--registry", registry, "--model", MODEL, "--port", "0",
                "--compile", "--num-samples", str(NUM_SAMPLES), "--seed", str(seed),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
            # A parent started in the background may ignore SIGINT; the
            # server shuts down gracefully on it, so give it the default.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            line = self._ready_line(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        host, _, port = line.rsplit(" ", 1)[1].rpartition(":")
        self.address = (host, int(port))

    def _ready_line(self, timeout: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError(f"server printed no address within {timeout}s")
        line = self.proc.stdout.readline().decode().strip()
        if not line.startswith("serving"):
            raise RuntimeError(f"server failed to start: {line!r}")
        return line

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def stream_frame(client, entry: Frame, wire_frame: int):
    client.observe(MODEL, wire_frame, entry.positions)
    observed = time.perf_counter()
    agents = client.predict_frame(MODEL, wire_frame, return_meta=True)
    return observed, agents


def set_up(ctx, index: int, plan: list[Frame]):
    """Publish, start a server, stream scene 0 once; returns the server and
    the ``(publish, start, total)`` seconds."""
    from repro.baselines import build_method
    from repro.serve import ModelRegistry, ServingClient

    registry = os.path.join(ctx.run_dir, f"registry-{index}")
    start = time.perf_counter()
    method = build_method("adaptraj", "pecnet", num_domains=NUM_SOURCE_DOMAINS, rng=ctx.seed)
    ModelRegistry(registry).publish(MODEL, method)
    published = time.perf_counter()
    server = Server(registry, ctx.seed, os.path.join(ctx.run_dir, "server.log"))
    started = time.perf_counter()
    try:
        with ServingClient.connect(*server.address, binary=True, dtype="f8") as client:
            for entry in plan:
                if entry.scene == 0:
                    stream_frame(client, entry, entry.offset)
    except BaseException:
        server.stop()
        raise
    done = time.perf_counter()
    return server, registry, (published - start, started - published, done - start)


def run(ctx) -> Outcome:
    from repro.serve import ModelRegistry, RemoteServingError, ServingClient

    out = Outcome()
    plan = make_plan(ctx.seed)
    setups = []

    def spare_set_up():
        spare, _, seconds = set_up(ctx, len(setups), plan)
        spare.stop()
        setups.append(seconds)

    server, registry, seconds = set_up(ctx, 0, plan)
    setups.append(seconds)
    try:
        rounds: list[list[float]] = []
        observe_s, predict_s, response_bytes = [], [], []
        served = {}  # plan index -> agents reply, for replay
        out.probe()
        started = time.perf_counter()
        with ServingClient.connect(*server.address, binary=True, dtype="f8") as client:
            for r in itertools.count(1):
                durations = []
                for index, entry in enumerate(plan):
                    wire = r * ROUND_SPAN + entry.offset
                    begin = time.perf_counter()
                    try:
                        observed, agents = stream_frame(client, entry, wire)
                    except RemoteServingError as error:
                        durations.append(time.perf_counter() - begin)
                        out.failed += 1
                        print(f"perfbench: frame {wire} failed: {error}", file=sys.stderr)
                        continue
                    end = time.perf_counter()
                    durations.append(end - begin)
                    observe_s.append(observed - begin)
                    predict_s.append(end - observed)
                    response_bytes.append(client.last_response_bytes)
                    check_reply(out, entry, agents)
                    if r == 1 and entry.frame == REPLAY_FRAME:
                        served[index] = agents
                out.attempted += len(plan)
                rounds.append(durations)
                out.probe()
                if time.perf_counter() - started >= ctx.seconds:
                    break
                if len(setups) < SETUPS:
                    spare_set_up()
            if ctx.trace:
                histograms = client.metrics()["metrics"]["histograms"]
                model_stats = client.stats()["models"][MODEL]
        server_rss = server.peak_rss_mb()
    finally:
        server.stop()
    while len(setups) < SETUPS:
        spare_set_up()

    method = ModelRegistry(registry).load_method(MODEL)
    for index, agents in served.items():
        check_replay(out, plan[index], agents, method, ctx.seed)

    agents_per_round = sum(len(entry.ready) for entry in plan)
    frame_s = [d for durations in rounds for d in durations]
    samples_per_s = agents_per_round / robust_round_seconds(rounds)
    out.end_to_end = {
        "setup_s": median(s[2] for s in setups),
        "samples_per_s": samples_per_s,
        "latency_ms": median(frame_s) * 1e3,
        "peak_rss_mb": server_rss,
    }
    if ctx.trace:
        out.per_layer = {
            "serve.client.observe_ms": median(observe_s) * 1e3,
            "serve.client.predict_frame_ms": median(predict_s) * 1e3,
            **{
                f"serve.server.{stage}_ms": _p50_ms(
                    histograms, f"serve_stage_seconds{{model={MODEL},stage={stage}}}"
                )
                for stage in STAGES
            },
            "serve.server.encode_ms": _p50_ms(histograms, "serve_encode_seconds"),
            "serve.batch_size_mean": model_stats["total_requests"] / model_stats["total_batches"],
            "serve.predictor.predict_ms": _predictor_ms(registry, plan),
            "serve.protocol.response_bytes": float(np.mean(response_bytes)),
            "serve.latency_tail_ms": tail_percentile(frame_s)[1] * 1e3,
            "serve.publish_s": median(s[0] for s in setups),
            "serve.server_start_s": median(s[1] for s in setups),
            "trace.samples_per_s": samples_per_s,
        }
    return out


def check_reply(out: Outcome, entry: Frame, agents: dict) -> None:
    out.check(
        set(agents) == set(entry.ready),
        f"scene {entry.scene} frame {entry.frame}: served agents {sorted(agents)} "
        f"!= ready from tracks {sorted(entry.ready)}",
    )
    for agent, (samples, _) in agents.items():
        out.check(
            samples.shape == (NUM_SAMPLES, PRED_LEN, 2) and bool(np.isfinite(samples).all()),
            f"agent {agent}: output of shape {samples.shape} or non-finite",
        )


def check_replay(out: Outcome, entry: Frame, agents: dict, method, seed: int) -> None:
    """Recompose each served batch offline and compare to 1e-6."""
    from repro.serve import collate_requests

    batches: dict[int, list] = {}
    for agent, (samples, meta) in agents.items():
        batches.setdefault(meta["batch_id"], []).append((meta["row"], agent, samples, meta))
    for batch_id, rows in batches.items():
        rows.sort()
        out.check(
            [row for row, *_ in rows] == list(range(rows[0][3]["batch_size"])),
            f"batch {batch_id} rows incomplete: {[row for row, *_ in rows]}",
        )
        batch = collate_requests(
            frame_requests(entry, [agent for _, agent, _, _ in rows]), pred_len=PRED_LEN
        )
        offline = method.predict(batch, NUM_SAMPLES, np.random.default_rng((seed, batch_id)))
        offline = offline + batch.origins[None, :, None, :]
        for row, agent, samples, _ in rows:
            error = float(np.max(np.abs(samples - offline[:, row])))
            out.check(error <= 1e-6, f"batch {batch_id} agent {agent}: replay differs by {error}")


def _p50_ms(histograms: dict, key: str) -> float:
    return histograms[key]["p50"] * 1e3 if key in histograms else 0.0


def _predictor_ms(registry: str, plan: list[Frame]) -> float:
    """The served model in-process on the same frame batches (second pass,
    after the plans for every batch shape are compiled)."""
    from repro.serve import ModelRegistry, collate_requests

    predictor = ModelRegistry(registry).load(MODEL, compile=True)
    batches = [
        collate_requests(frame_requests(entry, entry.ready), pred_len=PRED_LEN)
        for entry in plan
        if entry.ready
    ]
    durations = []
    for timed in (False, True):
        for i, batch in enumerate(batches):
            start = time.perf_counter()
            predictor.predict_world(batch, NUM_SAMPLES, rng=i)
            if timed:
                durations.append(time.perf_counter() - start)
    return median(durations) * 1e3
