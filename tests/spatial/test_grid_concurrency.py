"""Grid probes racing inserts: a reader never sees a half-done insert.

An insert appends to a cell list, drops that cell's cached slot array
and, every doubling, swaps the packed extents array for a larger copy.
One writer inserts enough extents to regrow that array several times
while reader threads probe; every answer must contain what was indexed
before the probe started and nothing the writer never inserted.
"""

from __future__ import annotations

import os
import random
import sys
import threading

from repro.spatial import Box, GridIndex

_UNIVERSE = Box(0, 0, 1000, 1000)
_ENTRIES = 2000  # the extents array regrows at 16, 32, ..., 2048
_PROBES = [Box(100, 100, 220, 180), Box(0, 0, 1000, 1000),
           Box(490, 490, 510, 510), Box(1100, 1100, 1200, 1200)]


def _extents() -> list[Box]:
    rng = random.Random(7)
    out = []
    for i in range(_ENTRIES):
        if i % 97 == 0:  # covers every cell
            out.append(Box(-10, -10, 1010, 1010))
        elif i % 89 == 0:  # wholly outside the universe
            out.append(Box(1050, 1050, 1150, 1150))
        else:
            x, y = rng.uniform(-50, 1000), rng.uniform(-50, 1000)
            w, h = rng.uniform(0, 120), rng.uniform(0, 120)
            out.append(Box(x, y, x + w, y + h))
    return out


class TestGridUnderThreads:
    def test_probes_race_regrowing_inserts(self):
        extents = _extents()
        final = [{i for i, box in enumerate(extents) if box.overlaps(probe)}
                 for probe in _PROBES]
        index = GridIndex(universe=_UNIVERSE, nx=16, ny=16)
        inserted = [0]  # entries whose insert has returned
        errors: list[BaseException] = []
        done = threading.Event()
        readers = (os.cpu_count() or 1) + 1
        gate = threading.Barrier(readers + 1)

        def writer():
            try:
                gate.wait()
                for i, box in enumerate(extents):
                    index.insert(i, box)
                    inserted[0] = i + 1
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                done.set()

        def reader(seed: int):
            rng = random.Random(seed)
            try:
                gate.wait()
                while not done.is_set():
                    k = rng.randrange(len(_PROBES))
                    before = inserted[0]
                    got = index.query(_PROBES[k])
                    assert got <= final[k], "id the writer never indexed"
                    assert {i for i in final[k] if i < before} <= got, \
                        "lost an extent indexed before the probe"
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader, args=(r,))
                    for r in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), \
            "stress threads did not finish"
        assert not errors, f"grid raced: {errors[0]!r}"
        assert len(index) == _ENTRIES
        assert [index.query(probe) for probe in _PROBES] == final
