import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.data import (
    MAX_CLASSES,
    Frame,
    NormStats,
    Recording,
    SynthConfig,
    WindowSpec,
    _ChainIter,
    apply_normalizer,
    build_frames,
    fit_normalizer,
    generate_synthetic,
    load_recordings,
    prepare_splits,
    signature_groups,
    sliding_window,
    split_by_session,
    write_sessions,
)
from frameattn.errors import ConfigError, DataError, ParseError


def make_recording(length=100, channels=2, session="s0", seed=0):
    rng = np.random.default_rng(seed)
    return Recording(
        session_id=session,
        samples=rng.normal(size=(length, channels)),
        labels=rng.integers(0, 3, size=length),
    )


# CSV round trip and error handling


def test_write_then_load_round_trips(tmp_path):
    recs = [make_recording(50, session="session_00"), make_recording(60, session="session_01", seed=1)]
    write_sessions(recs, tmp_path, {"seed": 0, "sample_rate": 1.0})
    loaded = load_recordings(tmp_path)
    assert [r.session_id for r in loaded] == ["session_00", "session_01"]
    for orig, back in zip(recs, loaded):
        np.testing.assert_array_equal(orig.samples, back.samples)
        np.testing.assert_array_equal(orig.labels, back.labels)


def test_load_drops_non_finite_rows(tmp_path, caplog):
    path = tmp_path / "s0.csv"
    path.write_text("t,ch1,label\n0,1.0,0\n1,nan,1\n2,2.0,0\n")
    with caplog.at_level("WARNING"):
        recs = load_recordings(tmp_path)
    assert len(recs[0].samples) == 2
    assert "dropped 1" in caplog.text


def test_load_drops_non_finite_row_whatever_its_label_sign(tmp_path):
    (tmp_path / "s0.csv").write_text("t,ch1,label\n0,1.0,0\n1,inf,-1\n")
    np.testing.assert_array_equal(load_recordings(tmp_path)[0].labels, [0])


def test_load_rejects_missing_label_column(tmp_path):
    (tmp_path / "s0.csv").write_text("t,ch1,ch2\n0,1.0,2.0\n")
    with pytest.raises(ParseError, match="s0.csv"):
        load_recordings(tmp_path)


def test_load_rejects_malformed_row_with_line_number(tmp_path):
    (tmp_path / "s0.csv").write_text("t,ch1,label\n0,1.0,0\n1,oops,1\n")
    with pytest.raises(ParseError, match="s0.csv:3"):
        load_recordings(tmp_path)


@pytest.mark.parametrize(
    "row, error, message",
    [
        ("nan,1.0,0", ParseError, "s0.csv:3: timestamp nan is not finite"),
        ("inf,1.0,0", ParseError, "s0.csv:3: timestamp inf is not finite"),
        ("1,1.0,inf", ParseError, "s0.csv:3: label must be an integer below 2\\*\\*63, got 'inf'"),
        ("1,1.0,1e300", ParseError, "s0.csv:3: label must be an integer below 2\\*\\*63"),
        ("1,1.0,2.7", ParseError, "s0.csv:3: label must be an integer below 2\\*\\*63, got '2.7'"),
        ("1,1.0,-0.5", ParseError, "s0.csv:3: label must be an integer below 2\\*\\*63"),
        # the label is checked on a row dropped for its channel value too
        ("1,nan,2.5", ParseError, "s0.csv:3: label must be an integer"),
        ("1,1.0,-1", DataError, "s0.csv:3: negative label -1"),
        ("1,1.0", ParseError, "s0.csv:3: expected 3 fields, got 2"),
        ("1,oops,1", ParseError, "s0.csv:3: could not convert string to float: 'oops'"),
        ("1,1_0.5,1", ParseError, "s0.csv:3: could not convert string to float: '1_0.5'"),
    ],
    ids=["nan-t", "inf-t", "inf-label", "huge-label", "fractional-label", "negative-fraction",
         "dropped-row-label", "negative-label", "field-count", "not-a-number", "underscore"],
)
def test_load_rejects_bad_row_naming_file_and_line(tmp_path, row, error, message):
    # t = 2, <row>, 0: a bad timestamp or label would otherwise load unsorted or truncated
    (tmp_path / "s0.csv").write_text(f"t,ch1,label\n2,1.0,0\n{row}\n0,3.0,1\n")
    with pytest.raises(error, match=message):
        load_recordings(tmp_path)


def test_load_counts_blank_lines_and_reads_quoted_crlf_rows(tmp_path):
    (tmp_path / "s0.csv").write_bytes(
        b't,ch1,label\r\n\r\n"2", 1.5 ,"1.0"\r\n1,-0.25,2\r\n\r\n0,"1e3",0\r\n'
    )
    rec = load_recordings(tmp_path)[0]
    np.testing.assert_array_equal(rec.samples[:, 0], [1e3, -0.25, 1.5])
    np.testing.assert_array_equal(rec.labels, [0, 2, 1])
    (tmp_path / "s0.csv").write_text("t,ch1,label\n\n0,1.0,0\n\n1,oops,1\n")
    with pytest.raises(ParseError, match="s0.csv:5"):
        load_recordings(tmp_path)


def test_load_rejects_empty_file(tmp_path):
    (tmp_path / "s0.csv").write_text("t,ch1,label\n")
    with pytest.raises(DataError):
        load_recordings(tmp_path)


@pytest.mark.parametrize("where", ["header", "body"])
def test_load_rejects_non_utf8_session_naming_file(tmp_path, where):
    # the body's bad byte sits past the first buffered read, so the header
    # decodes and the bulk parse meets it
    rows = "".join(f"{i},0.5,1\n" for i in range(3000)).encode()
    if where == "header":
        content = b"t,ch\xff1,label\n" + rows
    else:
        content = b"t,ch1,label\n" + rows + b"3000,0.\xff5,1\n"
    (tmp_path / "s0.csv").write_bytes(content)
    with pytest.raises(DataError, match=r"s0\.csv: not UTF-8 text"):
        load_recordings(tmp_path)


def test_load_missing_directory():
    with pytest.raises(DataError):
        load_recordings("/nonexistent/dir")


# normalization


def test_normalizer_population_std_example():
    rec = Recording(session_id="s", samples=np.array([[1.0], [2.0], [3.0]]), labels=np.zeros(3, int))
    stats = fit_normalizer([rec])
    assert stats.mean[0] == 2.0
    assert abs(stats.std[0] - math.sqrt(2.0 / 3.0)) < 1e-12
    normalized = apply_normalizer(rec, stats)
    np.testing.assert_allclose(normalized.samples[:, 0], [-1.224745, 0.0, 1.224745], atol=1e-6)
    assert abs(normalized.samples.mean()) < 1e-9
    assert abs(normalized.samples.var() - 1.0) < 1e-6


def test_normalizer_leaves_constant_channel_unchanged():
    samples = np.column_stack([np.full(10, 5.0), np.arange(10.0)])
    rec = Recording(session_id="s", samples=samples, labels=np.zeros(10, int))
    stats = fit_normalizer([rec])
    out = apply_normalizer(rec, stats)
    np.testing.assert_array_equal(out.samples[:, 0], samples[:, 0])


def test_normalizer_no_leakage_to_eval_split():
    train = make_recording(200, seed=0)
    eval_rec = Recording(
        session_id="e",
        samples=make_recording(200, seed=1).samples + 3.0,
        labels=np.zeros(200, int),
    )
    stats = fit_normalizer([train])
    out = apply_normalizer(eval_rec, stats)
    assert abs(out.samples.mean()) > 0.5


def test_normalize_denormalize_round_trip():
    rec = make_recording(120, seed=2)
    stats = fit_normalizer([rec])
    back = apply_normalizer(rec, stats).samples * stats.std + stats.mean
    np.testing.assert_allclose(back, rec.samples, atol=1e-9)


# windowing


def test_window_count_formula_for_worked_example():
    rec = make_recording(100)
    frames = sliding_window(rec, WindowSpec(window=24, step=12))
    assert len(frames) == 7  # floor((100 - 24) / 12) + 1


def test_single_window_when_length_equals_window():
    rec = make_recording(24)
    frames = sliding_window(rec, WindowSpec(window=24, step=12))
    assert len(frames) == 1


def test_short_session_yields_no_frames(caplog):
    rec = make_recording(10)
    with caplog.at_level("WARNING"):
        frames = sliding_window(rec, WindowSpec(window=24, step=12))
    assert frames == []
    assert "shorter than window" in caplog.text


def test_majority_label_rule():
    rec = Recording(
        session_id="s",
        samples=np.zeros((4, 1)),
        labels=np.array([0, 0, 0, 1]),
    )
    frames = sliding_window(rec, WindowSpec(window=4, step=4, label_rule="majority"))
    assert frames[0].label == 0


def test_majority_tie_breaks_to_last_sample():
    rec = Recording(
        session_id="s",
        samples=np.zeros((4, 1)),
        labels=np.array([0, 0, 1, 1]),
    )
    frames = sliding_window(rec, WindowSpec(window=4, step=4))
    assert frames[0].label == 1


def test_last_sample_label_rule():
    rec = Recording(
        session_id="s",
        samples=np.zeros((4, 1)),
        labels=np.array([0, 0, 0, 2]),
    )
    frames = sliding_window(rec, WindowSpec(window=4, step=4, label_rule="last"))
    assert frames[0].label == 2


@given(
    st.integers(1, 40).flatmap(
        lambda window: st.tuples(
            st.just(window),
            st.integers(1, window),
            st.integers(window, 400),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_window_count_matches_enumeration(case):
    window, step, length = case
    rec = Recording(
        session_id="s", samples=np.zeros((length, 1)), labels=np.zeros(length, int)
    )
    frames = sliding_window(rec, WindowSpec(window=window, step=step))
    starts = [s for s in range(0, length, step) if s + window <= length]
    assert len(frames) == len(starts) == (length - window) // step + 1


def test_frames_never_span_sessions_and_chrono_is_bijection():
    recs = [make_recording(70, session="b", seed=1), make_recording(50, session="a", seed=2)]
    frames = build_frames(recs, WindowSpec(window=24, step=12))
    assert sorted(f.chrono_index for f in frames) == list(range(len(frames)))
    by_session = {}
    for f in frames:
        by_session.setdefault(f.session_id, []).append(f.chrono_index)
    for indices in by_session.values():
        assert indices == sorted(indices)
    # session 'a' sorts first, so its frames take the low indices
    assert max(by_session["a"]) < min(by_session["b"])


def test_window_spec_validation():
    with pytest.raises(ConfigError):
        WindowSpec(window=10, step=0)
    with pytest.raises(ConfigError):
        WindowSpec(window=10, step=11)
    with pytest.raises(ConfigError):
        WindowSpec(window=10, step=5, label_rule="first")


# session splitting


def test_split_by_session_is_deterministic():
    recs = [make_recording(30, session=f"s{i}") for i in range(6)]
    train, val, test = split_by_session(recs, 1, 1)
    assert [r.session_id for r in train] == ["s0", "s1", "s2", "s3"]
    assert [r.session_id for r in val] == ["s4"]
    assert [r.session_id for r in test] == ["s5"]


def test_split_requires_enough_sessions():
    recs = [make_recording(30, session=f"s{i}") for i in range(2)]
    with pytest.raises(DataError):
        split_by_session(recs, 1, 1)


def test_prepare_splits_normalizes_with_train_stats():
    cfg = SynthConfig(sessions=4, session_len=600, seed=3)
    recs = generate_synthetic(cfg)
    splits = prepare_splits(recs, WindowSpec(window=16, step=8))
    train_data = np.concatenate([f.data for f in splits.train])
    assert abs(train_data.mean()) < 0.2
    assert splits.classes == 4


@pytest.mark.parametrize("short", [0, 1, 2], ids=["train", "val", "test"])
def test_prepare_splits_rejects_split_without_frames(short):
    # sessions sort as s0 (train), s1 (val), s2 (test)
    recs = [make_recording(10 if i == short else 40, session=f"s{i}") for i in range(3)]
    name = ["train", "val", "test"][short]
    with pytest.raises(DataError, match=f"the {name} split has no frames"):
        prepare_splits(recs, WindowSpec(window=16, step=8))


def test_prepare_splits_bounds_the_class_count():
    recs = [make_recording(40, session=f"s{i}") for i in range(3)]
    recs[1].labels[7] = MAX_CLASSES - 1
    assert prepare_splits(recs, WindowSpec(window=16, step=8)).classes == MAX_CLASSES
    recs[1].labels[7] = MAX_CLASSES
    message = f"session 's1': label {MAX_CLASSES} >= class bound {MAX_CLASSES}$"
    with pytest.raises(DataError, match=message):
        prepare_splits(recs, WindowSpec(window=16, step=8))


# synthetic generator


def test_synthetic_same_seed_is_identical():
    cfg = SynthConfig(sessions=2, session_len=500, seed=9)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.samples, rb.samples)
        np.testing.assert_array_equal(ra.labels, rb.labels)


def test_synthetic_different_seed_differs():
    a = generate_synthetic(SynthConfig(sessions=1, session_len=500, seed=1))
    b = generate_synthetic(SynthConfig(sessions=1, session_len=500, seed=2))
    assert not np.array_equal(a[0].samples, b[0].samples)


def test_synthetic_context_pairs_share_signature_group():
    cfg = SynthConfig(classes=4, context=True)
    groups = signature_groups(cfg)
    assert groups[0] == groups[1]  # the ambiguous pair
    assert len({groups[2], groups[3], groups[0]}) == 3  # context classes distinct


def test_synthetic_no_context_gives_distinct_groups():
    cfg = SynthConfig(classes=4, context=False)
    assert signature_groups(cfg) == [0, 1, 2, 3]


def test_synthetic_plain_chain_never_repeats_and_is_deterministic():
    cfg = SynthConfig(classes=3, context=False, sessions=2, session_len=2000, seed=8)
    chain = _ChainIter(cfg, np.random.default_rng(0), start=1)
    walk = [chain.current] + [chain.next_class() for _ in range(300)]
    assert all(a != b for a, b in zip(walk, walk[1:]))
    assert set(walk) == {0, 1, 2}
    a, b = generate_synthetic(cfg), generate_synthetic(cfg)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.samples, rb.samples)
        np.testing.assert_array_equal(ra.labels, rb.labels)
    assert {int(c) for r in a for c in np.unique(r.labels)} == {0, 1, 2}


def test_synthetic_context_needs_four_classes():
    with pytest.raises(ConfigError):
        SynthConfig(classes=3, context=True)


def test_synthetic_rejects_single_class():
    with pytest.raises(ConfigError):
        SynthConfig(classes=1)


def test_synthetic_rejects_short_dwell():
    with pytest.raises(ConfigError):
        SynthConfig(mean_dwell_windows=2.0)


def test_synthetic_pair_elements_follow_context_parity():
    cfg = SynthConfig(classes=4, sessions=1, session_len=8000, seed=5)
    rec = generate_synthetic(cfg)[0]
    # segment boundaries: wherever the label changes
    labels = rec.labels
    changes = np.flatnonzero(np.diff(labels)) + 1
    segments = [labels[0], *labels[changes]]
    for prev, cur in zip(segments, segments[1:]):
        if cur in (0, 1):  # pair element follows a context class of same parity
            assert prev in (2, 3)
            assert cur == prev - 2
        else:
            assert prev in (0, 1)


def test_synthetic_all_classes_occur():
    cfg = SynthConfig(sessions=2, session_len=6000, seed=6)
    recs = generate_synthetic(cfg)
    seen = set()
    for rec in recs:
        seen.update(np.unique(rec.labels).tolist())
    assert seen == {0, 1, 2, 3}


def test_manifest_written_with_sessions(tmp_path):
    cfg = SynthConfig(sessions=2, session_len=500, seed=4)
    recs = generate_synthetic(cfg)
    write_sessions(recs, tmp_path, {"seed": 4, "sample_rate": 1.0, "sessions": [r.session_id for r in recs]})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["sessions"] == ["session_00", "session_01"]
