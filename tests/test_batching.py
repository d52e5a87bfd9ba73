import json
from dataclasses import asdict

import numpy as np
import pytest

from frameattn.batching import (
    SHUFFLED,
    STRATEGIES,
    TIME_SEQUENTIAL,
    BatchPlan,
    build_plan,
    canonical_batches,
)
from frameattn.data import Frame
from frameattn.errors import ConfigError


def make_frames(per_session, channels=1):
    """per_session: dict session -> frame count; chrono indices are global."""
    frames = []
    chrono = 0
    for session in sorted(per_session):
        for _ in range(per_session[session]):
            frames.append(
                Frame(
                    data=np.zeros((4, channels)),
                    label=0,
                    chrono_index=chrono,
                    session_id=session,
                )
            )
            chrono += 1
    return frames


def assert_partition(plan: BatchPlan, n: int):
    flat = sorted(i for batch in plan.batches for i in batch)
    assert flat == list(range(n))


def test_time_sequential_single_session_contents():
    frames = make_frames({"s": 10})
    plan = build_plan(TIME_SEQUENTIAL, frames, 4, seed=0, epoch=0)
    contents = sorted(plan.batches, key=lambda b: b[0])
    assert contents == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]


def test_time_sequential_single_batch_when_b_exceeds_n():
    frames = make_frames({"s": 5})
    plan = build_plan(TIME_SEQUENTIAL, frames, 16, seed=0, epoch=0)
    assert plan.batches == ((0, 1, 2, 3, 4),)


def test_time_sequential_contents_invariant_order_varies():
    frames = make_frames({"s": 40})
    plans = [build_plan(TIME_SEQUENTIAL, frames, 4, seed=7, epoch=e) for e in range(5)]
    base = set(plans[0].batches)
    assert all(set(p.batches) == base for p in plans)
    assert any(p.batches != plans[0].batches for p in plans[1:])


def test_time_sequential_batches_are_session_pure_and_chronological():
    frames = make_frames({"a": 13, "b": 9, "c": 21})
    plan = build_plan(TIME_SEQUENTIAL, frames, 5, seed=3, epoch=2)
    assert_partition(plan, 43)
    for batch in plan.batches:
        sessions = {frames[i].session_id for i in batch}
        assert len(sessions) == 1
        chronos = [frames[i].chrono_index for i in batch]
        assert chronos == sorted(chronos)
        assert len(set(chronos)) == len(chronos)


def test_shuffled_partition_and_determinism():
    frames = make_frames({"a": 17, "b": 14})
    p1 = build_plan(SHUFFLED, frames, 8, seed=5, epoch=1)
    p2 = build_plan(SHUFFLED, frames, 8, seed=5, epoch=1)
    assert p1 == p2
    assert_partition(p1, 31)


def test_shuffled_batches_are_rarely_chronological():
    frames = make_frames({"s": 1000})
    for seed in range(5):
        plan = build_plan(SHUFFLED, frames, 128, seed=seed, epoch=0)
        for batch in plan.batches:
            if len(batch) < 3:
                continue
            chronos = [frames[i].chrono_index for i in batch]
            assert chronos != sorted(chronos)


def test_shuffled_contents_vary_across_epochs():
    frames = make_frames({"s": 64})
    p0 = build_plan(SHUFFLED, frames, 8, seed=0, epoch=0)
    p1 = build_plan(SHUFFLED, frames, 8, seed=0, epoch=1)
    assert set(p0.batches) != set(p1.batches)


def test_empty_frame_list_gives_empty_plan():
    for strategy in (TIME_SEQUENTIAL, SHUFFLED):
        plan = build_plan(strategy, [], 4, seed=0, epoch=0)
        assert plan.batches == ()


def test_plan_json_lines_are_pinned():
    # the RNG draws per strategy and the plans.jsonl record format
    frames = make_frames({"a": 5, "b": 4})
    lines = [json.dumps(asdict(build_plan(s, frames, 3, seed=9, epoch=2))) for s in STRATEGIES]
    assert lines == [
        '{"epoch": 2, "strategy": "time_sequential", "seed": 9, '
        '"batches": [[0, 1, 2], [8], [3, 4], [5, 6, 7]]}',
        '{"epoch": 2, "strategy": "shuffled", "seed": 9, '
        '"batches": [[1, 4, 3], [8, 2, 0], [7, 5, 6]]}',
    ]


def test_build_plan_rejects_unknown_strategy():
    with pytest.raises(ConfigError):
        build_plan("alphabetical", make_frames({"s": 4}), 2, seed=0, epoch=0)


def test_batch_size_validation():
    with pytest.raises(ConfigError):
        build_plan(TIME_SEQUENTIAL, make_frames({"s": 4}), 0, seed=0, epoch=0)
    with pytest.raises(ConfigError):
        build_plan(SHUFFLED, make_frames({"s": 4}), 0, seed=0, epoch=0)


def test_canonical_batches_order_is_session_then_time():
    frames = make_frames({"b": 6, "a": 6})
    batches = canonical_batches(frames, 4)
    first_sessions = [frames[b[0]].session_id for b in batches]
    assert first_sessions == ["a", "a", "b", "b"]


def test_sampler_properties_random_cases():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n_sessions = int(rng.integers(1, 4))
        counts = {f"s{i}": int(rng.integers(1, 40)) for i in range(n_sessions)}
        n = sum(counts.values())
        batch_size = int(rng.integers(1, 16))
        seed = int(rng.integers(0, 10_000))
        frames = make_frames(counts)

        seq0 = build_plan(TIME_SEQUENTIAL, frames, batch_size, seed, epoch=0)
        seq0_again = build_plan(TIME_SEQUENTIAL, frames, batch_size, seed, epoch=0)
        seq1 = build_plan(TIME_SEQUENTIAL, frames, batch_size, seed, epoch=1)
        shuf = build_plan(SHUFFLED, frames, batch_size, seed, epoch=0)

        assert seq0 == seq0_again  # determinism
        assert_partition(seq0, n)
        assert_partition(shuf, n)
        for batch in seq0.batches:
            chronos = [frames[i].chrono_index for i in batch]
            assert chronos == sorted(chronos) and len(set(chronos)) == len(chronos)
            assert len({frames[i].session_id for i in batch}) == 1
        assert set(seq0.batches) == set(seq1.batches)  # epoch-invariant contents
        if len(seq0.batches) >= 4:
            others = [
                build_plan(TIME_SEQUENTIAL, frames, batch_size, seed, epoch=e).batches
                for e in range(1, 5)
            ]
            assert any(o != seq0.batches for o in others)
