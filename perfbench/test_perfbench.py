"""Tests of the benchmark's own helpers: python3 -m pytest -q perfbench"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

import calibrate
from spans import Tracer, has_ancestor, self_times
from workloads import (POP_GRID, csv_digests, cyclic_defect, digest_mismatches,
                       husimi_grid, read_csv)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_self_time_subtracts_direct_children_only():
    # root(10) -> a(3) -> c(1); root -> b(4)
    parents = [-1, 0, 1, 0]
    durations = [10.0, 3.0, 1.0, 4.0]
    assert self_times(parents, durations) == [3.0, 2.0, 1.0, 4.0]
    names = ["root", "a", "c", "b"]
    assert has_ancestor(parents, names, 2, "root")
    assert not has_ancestor(parents, names, 3, "a")


def test_tracer_records_nesting_and_restores():
    class Owner:
        @staticmethod
        def leaf(x):
            return x + 1

    original = Owner.leaf
    tracer = Tracer()
    tracer.patch(Owner, "leaf", "layer.leaf", lambda a, k, r: r)

    def outer():
        return Owner.leaf(1) + Owner.leaf(2)

    assert tracer.wrap("layer.outer", outer)() == 5
    tracer.restore()
    assert Owner.leaf is original
    assert tracer.names == ["layer.outer", "layer.leaf", "layer.leaf"]
    assert tracer.parents == [-1, 0, 0]
    assert tracer.attrs == [None, 2, 3]
    dur = tracer.durations()
    own = self_times(tracer.parents, dur)
    assert own[0] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert all(d >= 0 for d in own)


def test_speed_clock_scales_program_time_and_skips_pauses(monkeypatch):
    # a host half as fast as the reference: every kernel run takes twice
    # REFERENCE_S, so program time reads half as long once scaled
    monkeypatch.setattr(calibrate, "kernel_seconds",
                        lambda: 2 * calibrate.REFERENCE_S)
    with calibrate.SpeedClock(interval=60.0) as clock:
        raw0, scaled0 = clock.mark()
        time.sleep(0.05)
        with clock.paused():
            time.sleep(0.05)
        raw1, scaled1 = clock.mark()
    raw, scaled = raw1 - raw0, scaled1 - scaled0
    assert 0.05 <= raw < 0.09
    assert scaled == pytest.approx(raw / 2)


def _fields(top):
    """A field symmetric under cycling the three wells, and a copy with the
    first well favoured."""
    a, b = np.meshgrid(np.arange(top + 1), np.arange(top + 1), indexing="ij")
    x, y = a / top, b / top
    z = 1.0 - x - y
    q = 1.0 + x * y * z + 0.3 * (x ** 2 + y ** 2 + z ** 2)
    q = np.where(z >= -1e-12, q, np.nan)
    return q, q * (1.0 + 0.5 * x)


def test_cyclic_check_accepts_symmetric_field():
    assert cyclic_defect(_fields(100)[0]) < 1e-12


def test_cyclic_check_rejects_broken_field():
    q, favoured = _fields(100)
    assert cyclic_defect(favoured) > 0.1
    q[30, 40] *= 1.01
    assert cyclic_defect(q) > 0.005


def test_cyclic_check_on_a_cli_husimi_field(tmp_path):
    sys.path.insert(0, str(SRC))
    import triwell.cli

    assert triwell.cli.main(["fields", "--n", "12", "--chi", "3",
                             "--pop-grid", str(POP_GRID),
                             "--out", str(tmp_path)]) == 0
    q = husimi_grid(read_csv(tmp_path / "husimi.csv"), 12)
    assert np.count_nonzero(~np.isnan(q)) == POP_GRID * (POP_GRID + 1) // 2
    assert cyclic_defect(q) < 1e-6


def test_csv_digest_comparison(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        out.mkdir()
        (out / "a.csv").write_text("x,y\n1,2.5\n")
        (out / "b.csv").write_text("z\n3\n")
        (out / "a.meta.json").write_text('{"wall_time_s": 1}\n')
    store = {}
    assert digest_mismatches(store, "job", csv_digests(first)) == []
    (second / "a.meta.json").write_text('{"wall_time_s": 2}\n')
    assert digest_mismatches(store, "job", csv_digests(second)) == []
    (second / "a.csv").write_text("x,y\n1,2.50\n")
    assert digest_mismatches(store, "job", csv_digests(second)) == ["a.csv"]
    (second / "b.csv").unlink()
    assert digest_mismatches(store, "job", csv_digests(second)) == [
        "a.csv", "b.csv"]
    assert digest_mismatches(store, "other job", csv_digests(second)) == []
