"""Property tests of session ingest and windowing against row-by-row oracles."""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.data import Recording, WindowSpec, load_recordings, sliding_window
from frameattn.errors import DataError, FrameAttnError


def row_loop_oracle(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a session one row at a time, by the rules ``load_recordings``
    documents: (samples, labels) sorted by t, or a ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != width or not all(v.strip().isascii() and "_" not in v for v in row):
                raise ValueError(f"malformed row {row}")
            t, *channels, label = (float(v) for v in row)
            if not (math.isfinite(t) and label.is_integer() and abs(label) < 2**63):
                raise ValueError(f"bad timestamp or label in {row}")
            if all(math.isfinite(v) for v in channels):
                if label < 0:
                    raise ValueError(f"negative label in {row}")
                rows.append((t, channels, int(label)))
    if not rows:
        raise ValueError("no usable data rows")
    rows.sort(key=lambda r: r[0])
    samples = np.array([r[1] for r in rows], dtype=np.float64).reshape(len(rows), width - 2)
    return samples, np.array([r[2] for r in rows], dtype=np.int64)


def load_both(text: str) -> tuple:
    """``load_recordings``' session or FrameAttnError, and the oracle's
    (samples, labels) or ValueError, for one session file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s0.csv"
        path.write_bytes(text.encode())
        try:
            loaded = load_recordings(tmp)[0]
        except FrameAttnError as e:
            loaded = e
        try:
            expected = row_loop_oracle(path)
        except ValueError as e:
            expected = e
    return loaded, expected


def assert_same_outcome(loaded, expected) -> None:
    if isinstance(expected, ValueError):
        assert isinstance(loaded, DataError), f"loaded a session the oracle rejects: {expected}"
        return
    samples, labels = expected
    assert isinstance(loaded, Recording), f"rejected a session the oracle reads: {loaded}"
    assert loaded.samples.dtype == np.float64 and loaded.labels.dtype == np.int64
    assert loaded.samples.shape == samples.shape
    assert loaded.samples.tobytes() == samples.tobytes()
    np.testing.assert_array_equal(loaded.labels, labels)


SPELLINGS = [repr, "{:.17g}".format, "{:.6f}".format, "{:e}".format]
# A field as written: maybe padded, maybe quoted.
FORMS = ["{}", " {}", "{}  ", '"{}"', '" {} "', '"{}" ']


def field(text: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(text, st.sampled_from(FORMS)).map(lambda p: p[1].format(p[0]))


finite = st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPELLINGS))
channel = field(
    st.one_of(
        finite.map(lambda p: p[1](p[0])),
        st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity"]),
    )
)
timestamp = field(st.one_of(st.integers(-5, 5), st.floats(-1e6, 1e6)).map(repr))
label = field(st.integers(0, 6).flatmap(lambda c: st.sampled_from([str(c), f"{c}.0", f"{c:e}"])))


def session_text(max_rows: int = 30) -> st.SearchStrategy:
    """A valid session: shuffled (often repeated) timestamps, blank lines,
    LF or CRLF endings, quoted and padded numbers, rows with non-finite
    channel values, and labels spelled as integers or integral floats."""

    def rows(channels: int) -> st.SearchStrategy:
        header = "t," + "".join(f"ch{i + 1}," for i in range(channels)) + "label"
        row = st.tuples(
            st.sampled_from(["", "", "", "\n"]),  # a blank line before the row, sometimes
            timestamp,
            st.lists(channel, min_size=channels, max_size=channels),
            label,
        ).map(lambda r: r[0] + ",".join([r[1], *r[2], r[3]]))
        return st.tuples(
            st.lists(row, min_size=1, max_size=max_rows),
            st.sampled_from(["\n", "\r\n"]),
            st.booleans(),
        ).map(lambda s: ("\n".join([header, *s[0]]) + "\n" * s[2]).replace("\n", s[1]))

    return st.integers(1, 3).flatmap(rows)


@given(session_text())
@settings(max_examples=200, deadline=None)
def test_generated_sessions_load_bit_for_bit_like_row_loop(text):
    loaded, expected = load_both(text)
    if isinstance(expected, ValueError):  # every row has a non-finite channel
        assert "no usable data rows" in str(loaded)
    assert_same_outcome(loaded, expected)


# Mutations insert or substitute these; "\u0661" is an Arabic-Indic digit.
TOKENS = [
    ",", '"', "\n", "\r\n", "\r", " ", "\t", "\xa0", "\x00", "#", "x", "_", "1", "-", ".",
    "e", "nan", "inf", "-inf", "1e300", "-1", "2.7", "-0.5", "\u0661",
]


@given(
    session_text(max_rows=8),
    st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 2), st.sampled_from(TOKENS)),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=300, deadline=None)
def test_mutated_bodies_raise_only_frameattn_errors(text, mutations):
    """A mutated session loads as the row loop reads it or raises a
    DataError; any other exception escapes ``load_both`` and fails."""
    header, sep, body = text.partition("\n")
    for where, op, token in mutations:
        i = int(where * len(body))
        if op == 0:
            body = body[:i] + token + body[i:]
        elif op == 1:
            body = body[:i] + body[i + 1 :]
        else:
            body = body[:i] + token + body[i + 1 :]
    assert_same_outcome(*load_both(header + sep + body))


def bincount_label(window_labels: np.ndarray, rule: str) -> int:
    counts = np.bincount(window_labels)
    winners = np.flatnonzero(counts == counts.max())
    if rule == "last" or len(winners) > 1:
        return int(window_labels[-1])
    return int(winners[0])


@given(
    st.integers(1, 12).flatmap(
        lambda window: st.tuples(
            st.just(window),
            st.integers(1, window),
            st.lists(st.integers(0, 4), min_size=window, max_size=80),
            st.sampled_from(["majority", "last"]),
            st.integers(1, 3),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_windows_match_per_window_oracle(case):
    window, step, labels, rule, channels = case
    labels = np.array(labels)
    samples = np.random.default_rng(len(labels)).normal(size=(len(labels), channels))
    rec = Recording(session_id="s", samples=samples, labels=labels)
    spec = WindowSpec(window=window, step=step, label_rule=rule)
    frames = sliding_window(rec, spec, start_index=7)
    starts = range(0, len(labels) - window + 1, step)
    assert len(frames) == len(starts)
    for k, (frame, s) in enumerate(zip(frames, starts)):
        assert type(frame.label) is int
        assert frame.label == bincount_label(labels[s : s + window], rule)
        assert frame.chrono_index == 7 + k
        assert frame.data.tobytes() == samples[s : s + window].tobytes()
        assert frame.data.shape == (window, channels)
        assert not frame.data.flags.writeable
        with pytest.raises(ValueError):
            frame.data[0, 0] = 1.0
