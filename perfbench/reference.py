"""Reference results computed apart from the program, with numpy alone.

Each workload's output is checked against these.  They take the raw
generated arrays (event times, keys, values in arrival order) and replay
the semantics the engine documents:

* the ingress issues a punctuation after every ``every`` events, at the
  high watermark minus the reorder latency, when that exceeds the last
  one it issued;
* a tumbling window of size ``W`` aligns an event time ``t`` to
  ``t - t % W`` and a punctuation ``p`` to ``(p + 1) - (p + 1) % W - 1``;
* an event is late when its aligned time is at or below the last aligned
  punctuation issued before it arrived; under DROP it is discarded;
* each (window, key) group then yields one result event
  ``(start, start + W, key, aggregate)``, in ascending (start, key) order.

The benchmark's tests check these functions against the row engine
(``engine="row"``), the paper-faithful oracle, on small seeds.
"""

from __future__ import annotations

import numpy as np

_NEVER = np.iinfo(np.int64).min


def max_lateness(ts):
    """The largest amount by which an event trails the running maximum
    of the event times that arrived before it."""
    ts = np.asarray(ts, dtype=np.int64)
    return int((np.maximum.accumulate(ts) - ts).max()) if ts.size else 0


def ingress_punctuations(ts, every, latency):
    """``(positions, values)``: after how many events each punctuation is
    issued, and its raw timestamp.  The closing punctuation at the end of
    the stream is left out; no event arrives after it."""
    ts = np.asarray(ts, dtype=np.int64)
    high = np.maximum.accumulate(ts)
    positions, values = [], []
    for position in range(every, ts.size + 1, every):
        candidate = int(high[position - 1]) - latency
        if not values or candidate > values[-1]:
            positions.append(position)
            values.append(candidate)
    return np.asarray(positions, dtype=np.int64), np.asarray(
        values, dtype=np.int64
    )


def late_mask(ts, window, positions, values):
    """Boolean mask of the events a tumbling-window sort drops as late."""
    ts = np.asarray(ts, dtype=np.int64)
    if not len(positions):
        return np.zeros(ts.size, dtype=bool)
    nxt = np.asarray(values, dtype=np.int64) + 1
    aligned = nxt - nxt % window - 1
    # Punctuation k is issued after positions[k] events, so event i sees
    # every punctuation whose position is <= i.
    seen = np.searchsorted(positions, np.arange(ts.size), side="right") - 1
    watermark = np.where(seen >= 0, aligned[np.maximum(seen, 0)], _NEVER)
    return (ts - ts % window) <= watermark


def windowed_groups(ts, keys, window, late, values=None):
    """Result rows ``(start, end, key, aggregate)`` of a tumbling-window
    grouped sum of ``values`` (a count when ``values`` is None) over the
    events not in ``late``, ascending by (start, key)."""
    keep = ~np.asarray(late, dtype=bool)
    ts = np.asarray(ts, dtype=np.int64)[keep]
    keys = np.asarray(keys, dtype=np.int64)[keep]
    starts = ts - ts % window
    groups, inverse = np.unique(
        np.stack([starts, keys]), axis=1, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    if values is None:
        totals = np.bincount(inverse, minlength=groups.shape[1])
    else:
        totals = np.zeros(groups.shape[1], dtype=np.int64)
        np.add.at(totals, inverse, np.asarray(values, dtype=np.int64)[keep])
    return [
        (start, start + window, key, total)
        for start, key, total in zip(
            groups[0].tolist(), groups[1].tolist(), totals.tolist()
        )
    ]


def event_rows(events):
    """Program output events as comparable ``(sync, other, key, payload)``."""
    return [
        (event.sync_time, event.other_time, event.key, event.payload)
        for event in events
    ]
