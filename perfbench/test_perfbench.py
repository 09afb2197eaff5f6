"""Tests of the benchmark's own checks.

Each oracle-based check agrees with the program on its real output and
rejects a deliberately corrupted copy of it.  Run with
``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np

import datagen
import oracles
import serve
import train
from common import Outcome, robust_round_seconds, tail_percentile


class Track:
    def __init__(self, agent_id, start_frame, num_frames):
        self.agent_id = agent_id
        self.start_frame = start_frame
        steps = np.arange(num_frames, dtype=np.float64)[:, None]
        self.positions = np.hstack([steps * 0.3 + agent_id, steps * -0.2 + 2 * agent_id])


def test_best_of_ade_by_hand():
    future = np.zeros((1, 2, 2))
    samples = np.stack([future + [3.0, 4.0], future + [0.0, 1.0]])
    assert oracles.best_of_ade(samples, future) == 1.0


def test_ade_check_agrees_and_rejects_corruption():
    from repro.metrics import best_of_ade_fde

    rng = np.random.default_rng(0)
    samples = rng.normal(size=(3, 5, 12, 2))
    future = rng.normal(size=(5, 12, 2))
    out = Outcome()
    train.check_ade(out, samples, future, best_of_ade_fde(samples, future)[0])
    assert not out.errors
    corrupted = samples.copy()
    corrupted[:, 2, 4] += 0.5
    train.check_ade(out, samples, future, best_of_ade_fde(corrupted, future)[0])
    assert out.errors


def test_ready_agents_by_hand():
    tracks = [Track(0, 0, 10), Track(1, 3, 5), Track(2, 5, 20)]
    assert oracles.ready_agents(tracks, 6, 8) == set()
    assert oracles.ready_agents(tracks, 7, 8) == {0}
    assert oracles.ready_agents(tracks, 12, 8) == {2}


def test_ready_agents_match_streaming_windows():
    from repro.serve import StreamingWindows
    from repro.sim import generate_scenes

    scene = generate_scenes("sdd", num_scenes=1, frames_per_scene=30, rng=3)[0]
    windows = StreamingWindows(obs_len=8)
    for frame in range(scene.num_frames):
        for track in scene.agents_at(frame):
            xy = track.positions[frame - track.start_frame]
            windows.push(track.agent_id, frame, *xy)
        assert set(windows.ready_agents(frame)) == oracles.ready_agents(scene.tracks, frame, 8)


def _frame():
    tracks = [Track(0, 0, 12), Track(1, 2, 10), Track(2, 4, 8)]
    ready = sorted(oracles.ready_agents(tracks, 11, 8))
    windows = {t.agent_id: t.positions[11 - t.start_frame - 7 : 12 - t.start_frame] for t in tracks}
    return serve.Frame(0, 11, {}, ready, {a: windows[a] for a in ready})


def test_reply_check_rejects_missing_extra_and_bad_outputs():
    entry = _frame()
    assert entry.ready == [0, 1, 2]
    good = {a: (np.zeros((serve.NUM_SAMPLES, serve.PRED_LEN, 2)), {}) for a in entry.ready}
    out = Outcome()
    serve.check_reply(out, entry, good)
    assert not out.errors
    for corrupt in (
        lambda r: r.pop(1),
        lambda r: r.update({7: r[0]}),
        lambda r: r.update({0: (np.full((serve.NUM_SAMPLES, serve.PRED_LEN, 2), np.nan), {})}),
        lambda r: r.update({0: (np.zeros((1, serve.PRED_LEN, 2)), {})}),
    ):
        reply = dict(good)
        corrupt(reply)
        out = Outcome()
        serve.check_reply(out, entry, reply)
        assert out.errors


def test_replay_check_agrees_and_rejects_corruption():
    from repro.baselines import build_method
    from repro.serve import collate_requests

    method = build_method("adaptraj", "pecnet", num_domains=3, rng=0)
    entry, seed, batch_id = _frame(), 5, 4
    batch = collate_requests(serve.frame_requests(entry, entry.ready), pred_len=serve.PRED_LEN)
    world = method.predict(batch, serve.NUM_SAMPLES, np.random.default_rng((seed, batch_id)))
    world = world + batch.origins[None, :, None, :]
    reply = {
        agent: (world[:, row], {"batch_id": batch_id, "row": row, "batch_size": len(entry.ready)})
        for row, agent in enumerate(entry.ready)
    }
    out = Outcome()
    serve.check_replay(out, entry, reply, method, seed)
    assert not out.errors
    samples, meta = reply[1]
    reply[1] = (samples + 1e-4, meta)
    serve.check_replay(out, entry, reply, method, seed)
    assert out.errors


def _windows_case():
    from repro.data import DataConfig, extract_samples
    from repro.sim import generate_scenes

    config = DataConfig(num_scenes=2, frames_per_scene=40, stride=2, max_neighbours=3)
    scenes = generate_scenes("eth_ucy", num_scenes=2, frames_per_scene=40, rng=1)
    samples = [
        s
        for scene in scenes
        for s in extract_samples(scene, stride=2, max_neighbours=config.max_neighbours)
    ]
    return config, scenes, SimpleNamespace(train=samples[:-5], val=samples[-5:], test=[])


def test_windows_check_agrees_and_rejects_corruption():
    config, scenes, splits = _windows_case()
    assert any(len(s.neighbours) == config.max_neighbours for s in splits.train)
    out = Outcome()
    datagen.check_windows(out, "eth_ucy", scenes, splits, config)
    assert not out.errors

    def corrupt_future(s):
        s.train[3].future = s.train[3].future + 1e-3

    def corrupt_neighbour(s):
        sample = next(x for x in s.train if len(x.neighbours))
        sample.neighbours = sample.neighbours[::-1] * 1.0 + 1e-3

    for corrupt in (corrupt_future, corrupt_neighbour, lambda s: s.val.pop()):
        broken = copy.deepcopy(splits)
        corrupt(broken)
        out = Outcome()
        datagen.check_windows(out, "eth_ucy", scenes, broken, config)
        assert out.errors


def test_read_back_check_rejects_a_changed_array():
    _, _, splits = _windows_case()
    out = Outcome()
    datagen.check_same(out, "eth_ucy", splits, copy.deepcopy(splits))
    assert not out.errors
    broken = copy.deepcopy(splits)
    broken.val[0].obs = broken.val[0].obs + 1e-9
    datagen.check_same(out, "eth_ucy", splits, broken)
    assert out.errors


def test_robust_round_time_drops_a_slow_minority():
    assert robust_round_seconds([[1.0, 1.0], [1.0, 9.0], [1.0, 1.0]]) == 2.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(range(100))[0] == 90.0
    assert tail_percentile(range(1000))[0] == 99.0
    assert tail_percentile(range(30)) == (50.0, 14.5)

