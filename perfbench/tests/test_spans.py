"""Span arithmetic on synthetic trees."""

from perfbench.spans import Recorder, coverage, self_times, totals_by_name


def test_self_times_of_a_synthetic_tree_add_up():
    # root [0, 10]: a [1, 4] (with a1 [2, 3]), b [5, 9]; 3 s uncovered.
    rows = [["root", 0.0, 10.0, -1, None],
            ["a", 1.0, 4.0, 0, None],
            ["a1", 2.0, 3.0, 1, None],
            ["b", 5.0, 9.0, 0, None]]
    selfs = self_times(rows)
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert sum(selfs) == rows[0][2] - rows[0][1]
    assert coverage(rows, "root") == 0.7
    assert totals_by_name(rows)["root"] == (1, 10.0, 3.0)


def test_overlapping_children_are_not_counted_twice():
    # Concurrent requests under one window: the union covers [1, 6].
    rows = [["window", 0.0, 8.0, -1, None],
            ["request", 1.0, 5.0, 0, 1],
            ["request", 2.0, 6.0, 0, 2],
            ["request", 3.0, 4.0, 0, 3]]
    assert self_times(rows)[0] == 3.0


def test_recorder_nests_and_can_be_switched_off():
    rec = Recorder(enabled=True)
    with rec.span("outer"):
        with rec.span("inner", key=7):
            pass
        free = rec.open("concurrent", parent=0)
        rec.close(free)
    assert [r[0] for r in rec.rows] == ["outer", "inner", "concurrent"]
    assert [r[3] for r in rec.rows] == [-1, 0, 0]
    assert rec.rows[1][4] == 7
    assert all(r[2] >= r[1] for r in rec.rows)
    rec.enabled = False
    with rec.span("ignored") as index:
        assert index == -1
    assert len(rec.rows) == 3
