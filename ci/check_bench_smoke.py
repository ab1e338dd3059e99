#!/usr/bin/env python3
"""Perf gates over the bench JSON trajectories.

Default mode reads a bench_parallel_scale JSON file containing the
deep-tree scheduler series `parallel_scale/scheduler_deep/threads:N`
(google-benchmark appends `/iterations:.../manual_time` to the names)
and fails (exit 1, one-line message -- never a traceback) when:

  * the file is missing, unreadable, or not benchmark-shaped JSON,
  * the expected series is missing or empty,
  * the 1- or 4-thread point is missing,
  * the 4-thread speedup over the 1-thread baseline is below the floor
    (BENCH_SMOKE_FLOOR env var, default 1.5), or
  * the work-stealing executor reports zero steals at 4 threads
    (meaning load never balanced / the parallel path didn't run).

--kernel mode reads a bench_score_kernel JSON file and fails when the
large configuration `score_kernel/soa/c:4096/v:16/d:4` is missing or its
`speedup_vs_naive` counter is below the floor (BENCH_KERNEL_FLOOR env
var, default 1.3) -- the SoA scoring kernel must beat the naive
per-vertex scan on scored-candidates/sec.

--geometry mode reads a bench_region_split JSON file and fails when the
large configuration `region_split/flat/d:4/r:8` is missing, its
`arena_growth_events` counter is missing or nonzero, or its
`splits_per_sec` is not positive -- a warmed GeomArena must serve every
split of the timed loop without growing its scratch. The point rotates
32 distinct eight-times-cut polytopes through one arena, a mix of deep
partition cells the unit test's single box does not reach. The split's
end-to-end cost is guarded by the serving benchmark's partition and
query metrics (perfbench/).

--cache mode reads a bench_query_cache JSON file and fails when the
gated configuration `query_cache/warm/d:4/k:10` is missing, its
`speedup_vs_cold` counter is below the floor (BENCH_CACHE_FLOOR env var,
default 2.0), its zipf-replay `hit_rate` is below 0.5, or it saved zero
partition tasks -- the warm cross-query region cache must beat the
cache-off replay of the identical query sequence. It also fails when
`query_cache/distinct/d:4/k:10` is missing or its `overhead_vs_cold`
counter is above 1.15 -- under cache admission, all-distinct traffic
(every query a first sighting) must cost what the cache-off replay of
the same boxes does.

--snapshot mode reads a bench_snapshot_update JSON file and fails when
the gated configuration `snapshot_update/incremental/d:4/k:10/delta:1pct`
is missing, its `speedup_vs_rebuild` counter is below the floor
(BENCH_SNAPSHOT_FLOOR env var, default 5.0), or its `equal` counter is
not 1 -- incremental skyband maintenance across a <=1% publish delta
must beat a from-scratch rebuild while staying bit-identical to it. The
same checks gate the member-delete point
`snapshot_update/incremental/d:4/k:10/member_deletes:1/delta:1pct` at a
fixed 4.0x: deleting the highest-sum member (the widest promotion scan)
must stay well ahead of a rebuild.

Usage: check_bench_smoke.py bench_smoke.json
       check_bench_smoke.py --kernel score_kernel.json
       check_bench_smoke.py --geometry region_split.json
       check_bench_smoke.py --cache BENCH_query_cache.json
       check_bench_smoke.py --snapshot BENCH_snapshot_update.json
Self-test: check_bench_smoke.py --self-test
"""

import json
import os
import re
import sys

SERIES = re.compile(r"^parallel_scale/scheduler_deep/threads:(\d+)(/|$)")
KERNEL_LARGE = re.compile(r"^score_kernel/soa/c:4096/v:16/d:4(/|$)")
GEOM_LARGE = re.compile(r"^region_split/flat/d:4/r:8(/|$)")
CACHE_GATED = re.compile(r"^query_cache/warm/d:4/k:10(/|$)")
CACHE_DISTINCT = re.compile(r"^query_cache/distinct/d:4/k:10(/|$)")
DISTINCT_CEILING = 1.15
SNAPSHOT_GATED = re.compile(
    r"^snapshot_update/incremental/d:4/k:10/delta:1pct(/|$)")
SNAPSHOT_MEMBER_GATED = re.compile(
    r"^snapshot_update/incremental/d:4/k:10/member_deletes:1/delta:1pct"
    r"(/|$)")
MEMBER_DELETE_FLOOR = 4.0


def evaluate(report, floor):
    """Returns (ok, one_line_message) for a parsed benchmark report."""
    if not isinstance(report, dict):
        return False, "report is not a JSON object"
    benchmarks = report.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        return False, (
            "no benchmark series in the report (did bench_parallel_scale "
            "run with --benchmark_out and the scheduler_deep filter?)"
        )

    points = {}
    for bench in benchmarks:
        if not isinstance(bench, dict):
            continue
        match = SERIES.match(bench.get("name", ""))
        if match:
            points[int(match.group(1))] = bench

    if not points:
        return False, (
            "scheduler_deep series empty: the report has "
            f"{len(benchmarks)} benchmarks but none match "
            "parallel_scale/scheduler_deep/threads:N"
        )
    if 1 not in points or 4 not in points:
        return False, (
            "scheduler_deep series incomplete: got threads "
            f"{sorted(points)} (need 1 and 4)"
        )

    four = points[4]
    speedup = four.get("speedup_vs_1t")
    if speedup is None:
        return False, "threads:4 point has no speedup_vs_1t counter"
    steals = four.get("steals", 0.0)
    tasks = four.get("tasks", 0.0)

    summary = (
        f"4-thread speedup {speedup:.2f}x (floor {floor}x), "
        f"avg {tasks:.0f} tasks/query of which {steals:.0f} stolen"
    )
    if speedup < floor:
        return False, f"4-thread speedup {speedup:.2f}x below the {floor}x floor"
    if steals <= 0:
        return False, (
            "zero steals at 4 threads: the work-stealing executor did not "
            "balance load (or the parallel path did not run)"
        )
    return True, summary


def evaluate_kernel(report, floor):
    """Returns (ok, one_line_message) for a bench_score_kernel report."""
    if not isinstance(report, dict):
        return False, "report is not a JSON object"
    benchmarks = report.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        return False, (
            "no benchmark series in the report (did bench_score_kernel "
            "run with --benchmark_out?)"
        )
    large = None
    for bench in benchmarks:
        if isinstance(bench, dict) and KERNEL_LARGE.match(
                bench.get("name", "")):
            large = bench
            break
    if large is None:
        return False, (
            "large kernel config missing: the report has "
            f"{len(benchmarks)} benchmarks but none match "
            "score_kernel/soa/c:4096/v:16/d:4"
        )
    speedup = large.get("speedup_vs_naive")
    if speedup is None:
        return False, (
            "large kernel config has no speedup_vs_naive counter (did "
            "the naive series run first?)"
        )
    scored = large.get("scored_per_sec", 0.0)
    summary = (
        f"SoA kernel speedup {speedup:.2f}x over naive on the large "
        f"config (floor {floor}x), {scored / 1e6:.0f}M scored/s"
    )
    if speedup < floor:
        return False, (
            f"SoA kernel speedup {speedup:.2f}x below the {floor}x floor"
        )
    return True, summary


def evaluate_geometry(report):
    """Returns (ok, one_line_message) for a bench_region_split report."""
    if not isinstance(report, dict):
        return False, "report is not a JSON object"
    benchmarks = report.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        return False, (
            "no benchmark series in the report (did bench_region_split "
            "run with --benchmark_out?)"
        )
    large = None
    for bench in benchmarks:
        if isinstance(bench, dict) and GEOM_LARGE.match(
                bench.get("name", "")):
            large = bench
            break
    if large is None:
        return False, (
            "large geometry config missing: the report has "
            f"{len(benchmarks)} benchmarks but none match "
            "region_split/flat/d:4/r:8"
        )
    growths = large.get("arena_growth_events")
    if growths is None:
        return False, (
            "large geometry config has no arena_growth_events counter"
        )
    if growths != 0:
        return False, (
            f"{growths:.0f} GeomArena growth events in the timed loop: "
            "warmed splits must not grow scratch"
        )
    splits = large.get("splits_per_sec", 0.0)
    if not splits > 0:
        return False, (
            f"splits_per_sec is {splits}: the timed loop did not split"
        )
    return True, (
        f"flat split on the large config: {splits / 1e3:.0f}k splits/s, "
        "zero arena growth events"
    )


def evaluate_cache(report, floor):
    """Returns (ok, one_line_message) for a bench_query_cache report."""
    if not isinstance(report, dict):
        return False, "report is not a JSON object"
    benchmarks = report.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        return False, (
            "no benchmark series in the report (did bench_query_cache "
            "run with --benchmark_out?)"
        )
    gated = None
    for bench in benchmarks:
        if isinstance(bench, dict) and CACHE_GATED.match(
                bench.get("name", "")):
            gated = bench
            break
    if gated is None:
        return False, (
            "gated cache config missing: the report has "
            f"{len(benchmarks)} benchmarks but none match "
            "query_cache/warm/d:4/k:10"
        )
    speedup = gated.get("speedup_vs_cold")
    if speedup is None:
        return False, (
            "gated cache config has no speedup_vs_cold counter (did the "
            "cold series run first, and did every query get classified?)"
        )
    hit_rate = gated.get("hit_rate", 0.0)
    tasks_saved = gated.get("tasks_saved", 0.0)
    summary = (
        f"warm region-cache replay {speedup:.2f}x over cold (floor "
        f"{floor}x), hit rate {hit_rate:.3f}, "
        f"{tasks_saved:.0f} partition tasks saved"
    )
    if speedup < floor:
        return False, (
            f"warm cache replay speedup {speedup:.2f}x below the "
            f"{floor}x floor"
        )
    if hit_rate < 0.5:
        return False, (
            f"zipf replay hit rate {hit_rate:.3f} below 0.5: the cache "
            "is not absorbing the repeated profiles"
        )
    if tasks_saved <= 0:
        return False, (
            "zero partition tasks saved: hits never clipped a stored "
            "region (cache plumbing broken?)"
        )
    distinct = None
    for bench in benchmarks:
        if isinstance(bench, dict) and CACHE_DISTINCT.match(
                bench.get("name", "")):
            distinct = bench
            break
    if distinct is None:
        return False, (
            "distinct cache config missing: no benchmark matches "
            "query_cache/distinct/d:4/k:10"
        )
    overhead = distinct.get("overhead_vs_cold")
    if overhead is None:
        return False, (
            "distinct cache config has no overhead_vs_cold counter (did "
            "every query get classified?)"
        )
    if overhead > DISTINCT_CEILING:
        return False, (
            f"all-distinct replay costs {overhead:.2f}x the cache-off "
            f"replay, above the {DISTINCT_CEILING}x ceiling: first "
            "sightings are not solved as with the cache off"
        )
    return True, (
        f"{summary}; all-distinct replay {overhead:.2f}x cache-off "
        f"(ceiling {DISTINCT_CEILING}x)"
    )


def snapshot_point(benchmarks, pattern, label, floor):
    """Returns (ok, one_line_message, point) for one gated
    bench_snapshot_update configuration."""
    point = None
    for bench in benchmarks:
        if isinstance(bench, dict) and pattern.match(bench.get("name", "")):
            point = bench
            break
    if point is None:
        return False, (
            "gated snapshot config missing: the report has "
            f"{len(benchmarks)} benchmarks but none match {label}"
        ), None
    speedup = point.get("speedup_vs_rebuild")
    if speedup is None:
        return False, (
            f"gated snapshot config {label} has no speedup_vs_rebuild "
            "counter (did the rebuild series run first?)"
        ), None
    equal = point.get("equal")
    if equal != 1:
        return False, (
            f"incremental skyband state of {label} is NOT bit-identical to "
            f"the rebuild (equal={equal}): maintenance correctness is broken"
        ), None
    if speedup < floor:
        return False, (
            f"incremental maintenance speedup {speedup:.2f}x on {label} "
            f"below the {floor}x floor"
        ), None
    return True, "", point


def evaluate_snapshot(report, floor):
    """Returns (ok, one_line_message) for a bench_snapshot_update report."""
    if not isinstance(report, dict):
        return False, "report is not a JSON object"
    benchmarks = report.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        return False, (
            "no benchmark series in the report (did bench_snapshot_update "
            "run with --benchmark_out?)"
        )
    ok, message, gated = snapshot_point(
        benchmarks, SNAPSHOT_GATED,
        "snapshot_update/incremental/d:4/k:10/delta:1pct", floor)
    if not ok:
        return False, message
    ok, message, member = snapshot_point(
        benchmarks, SNAPSHOT_MEMBER_GATED,
        "snapshot_update/incremental/d:4/k:10/member_deletes:1/delta:1pct",
        MEMBER_DELETE_FLOOR)
    if not ok:
        return False, message
    return True, (
        "incremental skyband maintenance "
        f"{gated['speedup_vs_rebuild']:.2f}x over rebuild on the gated 1% "
        f"delta (floor {floor}x), {member['speedup_vs_rebuild']:.2f}x with "
        f"a member delete (floor {MEMBER_DELETE_FLOOR}x), bit-identical, "
        f"publish {gated.get('publish_ms', 0.0):.2f}ms"
    )


def self_test():
    def series(entries):
        return {
            "benchmarks": [
                {
                    "name": f"parallel_scale/scheduler_deep/threads:{t}"
                            "/iterations:3/manual_time",
                    **counters,
                }
                for t, counters in entries.items()
            ]
        }

    good = series({
        1: {},
        4: {"speedup_vs_1t": 2.0, "steals": 10.0, "tasks": 100.0},
    })
    ok, _ = evaluate(good, 1.5)
    assert ok, "healthy series must pass"

    ok, message = evaluate({}, 1.5)
    assert not ok and "no benchmark series" in message

    ok, message = evaluate({"benchmarks": []}, 1.5)
    assert not ok and "no benchmark series" in message

    ok, message = evaluate(
        {"benchmarks": [{"name": "some_other_bench/threads:4"}]}, 1.5)
    assert not ok and "series empty" in message

    ok, message = evaluate(series({4: {"speedup_vs_1t": 2.0}}), 1.5)
    assert not ok and "incomplete" in message

    slow = series({1: {}, 4: {"speedup_vs_1t": 1.1, "steals": 10.0}})
    ok, message = evaluate(slow, 1.5)
    assert not ok and "below" in message

    stuck = series({1: {}, 4: {"speedup_vs_1t": 2.0, "steals": 0.0}})
    ok, message = evaluate(stuck, 1.5)
    assert not ok and "zero steals" in message

    ok, message = evaluate([1, 2], 1.5)
    assert not ok, "non-object JSON must fail, not crash"

    def kernel_report(name, counters):
        return {
            "benchmarks": [
                {"name": "score_kernel/naive/c:4096/v:16/d:4/manual_time"},
                {"name": name + "/manual_time", **counters},
            ]
        }

    good_kernel = kernel_report(
        "score_kernel/soa/c:4096/v:16/d:4",
        {"speedup_vs_naive": 2.0, "scored_per_sec": 3.0e8})
    ok, _ = evaluate_kernel(good_kernel, 1.3)
    assert ok, "healthy kernel report must pass"

    ok, message = evaluate_kernel({}, 1.3)
    assert not ok and "no benchmark series" in message

    ok, message = evaluate_kernel(
        kernel_report("score_kernel/soa/c:256/v:4/d:3",
                      {"speedup_vs_naive": 2.0}), 1.3)
    assert not ok and "large kernel config missing" in message

    ok, message = evaluate_kernel(
        kernel_report("score_kernel/soa/c:4096/v:16/d:4", {}), 1.3)
    assert not ok and "no speedup_vs_naive" in message

    ok, message = evaluate_kernel(
        kernel_report("score_kernel/soa/c:4096/v:16/d:4",
                      {"speedup_vs_naive": 1.1}), 1.3)
    assert not ok and "below" in message

    ok, message = evaluate_kernel([1, 2], 1.3)
    assert not ok, "non-object kernel JSON must fail, not crash"

    def geom_report(name, counters):
        return {
            "benchmarks": [
                {"name": "region_split/flat/d:2/r:4/manual_time",
                 "arena_growth_events": 0.0, "splits_per_sec": 2.0e5},
                {"name": name + "/manual_time", **counters},
            ]
        }

    large = "region_split/flat/d:4/r:8"
    good_geom = geom_report(
        large, {"arena_growth_events": 0.0, "splits_per_sec": 1.0e5})
    ok, message = evaluate_geometry(good_geom)
    assert ok, "healthy geometry report must pass: " + message

    ok, message = evaluate_geometry({})
    assert not ok and "no benchmark series" in message

    ok, message = evaluate_geometry(
        geom_report("region_split/flat/d:3/r:4",
                    {"arena_growth_events": 0.0, "splits_per_sec": 1.0e5}))
    assert not ok and "large geometry config missing" in message

    ok, message = evaluate_geometry(
        geom_report(large, {"splits_per_sec": 1.0e5}))
    assert not ok and "no arena_growth_events" in message

    ok, message = evaluate_geometry(
        geom_report(large,
                    {"arena_growth_events": 3.0, "splits_per_sec": 1.0e5}))
    assert not ok and "growth events in the timed loop" in message

    ok, message = evaluate_geometry(
        geom_report(large, {"arena_growth_events": 0.0}))
    assert not ok and "did not split" in message

    ok, message = evaluate_geometry(
        geom_report(large,
                    {"arena_growth_events": 0.0, "splits_per_sec": 0.0}))
    assert not ok and "did not split" in message

    # The retired legacy series no longer satisfies the gate.
    ok, message = evaluate_geometry(
        geom_report("region_split/legacy/d:4/r:8",
                    {"arena_growth_events": 0.0, "splits_per_sec": 1.0e5}))
    assert not ok and "large geometry config missing" in message

    ok, message = evaluate_geometry([1, 2])
    assert not ok, "non-object geometry JSON must fail, not crash"

    def cache_report(name, counters, distinct=None):
        if distinct is None:
            distinct = {"overhead_vs_cold": 1.02, "deferred_rate": 1.0}
        return {
            "benchmarks": [
                {"name": "query_cache/cold/d:4/k:10/manual_time"},
                {"name": name + "/manual_time", **counters},
                {"name": "query_cache/distinct/d:4/k:10/manual_time",
                 **distinct},
            ]
        }

    good_cache = cache_report(
        "query_cache/warm/d:4/k:10",
        {"speedup_vs_cold": 3.0, "hit_rate": 0.99, "tasks_saved": 4.0e5})
    ok, _ = evaluate_cache(good_cache, 2.0)
    assert ok, "healthy cache report must pass"

    ok, message = evaluate_cache({}, 2.0)
    assert not ok and "no benchmark series" in message

    ok, message = evaluate_cache(
        cache_report("query_cache/warm/d:3/k:5",
                     {"speedup_vs_cold": 3.0}), 2.0)
    assert not ok and "gated cache config missing" in message

    ok, message = evaluate_cache(
        cache_report("query_cache/warm/d:4/k:10",
                     {"hit_rate": 0.99, "tasks_saved": 1.0}), 2.0)
    assert not ok and "no speedup_vs_cold" in message

    ok, message = evaluate_cache(
        cache_report("query_cache/warm/d:4/k:10",
                     {"speedup_vs_cold": 1.4, "hit_rate": 0.99,
                      "tasks_saved": 1.0}), 2.0)
    assert not ok and "below" in message

    ok, message = evaluate_cache(
        cache_report("query_cache/warm/d:4/k:10",
                     {"speedup_vs_cold": 3.0, "hit_rate": 0.2,
                      "tasks_saved": 1.0}), 2.0)
    assert not ok and "hit rate" in message

    ok, message = evaluate_cache(
        cache_report("query_cache/warm/d:4/k:10",
                     {"speedup_vs_cold": 3.0, "hit_rate": 0.99,
                      "tasks_saved": 0.0}), 2.0)
    assert not ok and "zero partition tasks saved" in message

    healthy_warm = {"speedup_vs_cold": 3.0, "hit_rate": 0.99,
                    "tasks_saved": 1.0}
    ok, message = evaluate_cache(
        cache_report("query_cache/warm/d:4/k:10", healthy_warm,
                     {"overhead_vs_cold": 1.4, "deferred_rate": 1.0}), 2.0)
    assert not ok and "above the 1.15x ceiling" in message

    ok, message = evaluate_cache(
        cache_report("query_cache/warm/d:4/k:10", healthy_warm,
                     {"deferred_rate": 1.0}), 2.0)
    assert not ok and "no overhead_vs_cold" in message

    no_distinct = cache_report("query_cache/warm/d:4/k:10", healthy_warm)
    no_distinct["benchmarks"].pop()
    ok, message = evaluate_cache(no_distinct, 2.0)
    assert not ok and "distinct cache config missing" in message

    ok, message = evaluate_cache([1, 2], 2.0)
    assert not ok, "non-object cache JSON must fail, not crash"

    gated_name = "snapshot_update/incremental/d:4/k:10/delta:1pct"
    member_name = ("snapshot_update/incremental/d:4/k:10/member_deletes:1"
                   "/delta:1pct")
    healthy = {"speedup_vs_rebuild": 40.0, "equal": 1.0, "publish_ms": 0.3}
    member_healthy = {"speedup_vs_rebuild": 5.5, "equal": 1.0}

    def snapshot_report(points):
        return {
            "benchmarks": [
                {"name": "snapshot_update/rebuild/d:4/k:10/delta:1pct"
                         "/manual_time"},
            ] + [
                {"name": name + "/manual_time", **counters}
                for name, counters in points.items()
            ]
        }

    ok, message = evaluate_snapshot(
        snapshot_report({gated_name: healthy, member_name: member_healthy}),
        5.0)
    assert ok, "healthy snapshot report must pass: " + message

    ok, message = evaluate_snapshot({}, 5.0)
    assert not ok and "no benchmark series" in message

    ok, message = evaluate_snapshot(
        snapshot_report({
            "snapshot_update/incremental/d:3/k:5/delta:1pct": healthy,
            member_name: member_healthy}), 5.0)
    assert not ok and "gated snapshot config missing" in message

    ok, message = evaluate_snapshot(
        snapshot_report({gated_name: {"equal": 1.0},
                         member_name: member_healthy}), 5.0)
    assert not ok and "no speedup_vs_rebuild" in message

    ok, message = evaluate_snapshot(
        snapshot_report({gated_name: {"speedup_vs_rebuild": 40.0,
                                      "equal": 0.0},
                         member_name: member_healthy}), 5.0)
    assert not ok and "NOT bit-identical" in message

    ok, message = evaluate_snapshot(
        snapshot_report({gated_name: {"speedup_vs_rebuild": 3.0,
                                      "equal": 1.0},
                         member_name: member_healthy}), 5.0)
    assert not ok and "below" in message

    # The member-delete gate: missing, slow and unequal reports fail.
    ok, message = evaluate_snapshot(
        snapshot_report({gated_name: healthy}), 5.0)
    assert not ok and "gated snapshot config missing" in message
    assert "member_deletes:1" in message

    ok, message = evaluate_snapshot(
        snapshot_report({gated_name: healthy,
                         member_name: {"speedup_vs_rebuild": 2.5,
                                       "equal": 1.0}}), 5.0)
    assert not ok and "below the 4.0x floor" in message
    assert "member_deletes:1" in message

    ok, message = evaluate_snapshot(
        snapshot_report({gated_name: healthy,
                         member_name: {"speedup_vs_rebuild": 5.5,
                                       "equal": 0.0}}), 5.0)
    assert not ok and "NOT bit-identical" in message
    assert "member_deletes:1" in message

    # The member floor is fixed: lowering the 1% floor does not lower it.
    ok, message = evaluate_snapshot(
        snapshot_report({gated_name: healthy,
                         member_name: {"speedup_vs_rebuild": 3.9,
                                       "equal": 1.0}}), 1.0)
    assert not ok and "member_deletes:1" in message

    ok, message = evaluate_snapshot([1, 2], 5.0)
    assert not ok, "non-object snapshot JSON must fail, not crash"
    print("bench-smoke: self-test PASS")


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        self_test()
        return
    kernel_mode = len(sys.argv) == 3 and sys.argv[1] == "--kernel"
    geometry_mode = len(sys.argv) == 3 and sys.argv[1] == "--geometry"
    cache_mode = len(sys.argv) == 3 and sys.argv[1] == "--cache"
    snapshot_mode = len(sys.argv) == 3 and sys.argv[1] == "--snapshot"
    flagged = kernel_mode or geometry_mode or cache_mode or snapshot_mode
    if not flagged and len(sys.argv) != 2:
        print(
            f"bench-smoke: FAIL: usage: {sys.argv[0]} "
            "[--kernel|--geometry|--cache|--snapshot] <benchmark_out.json>",
            file=sys.stderr,
        )
        sys.exit(1)
    path = sys.argv[2] if flagged else sys.argv[1]

    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(
            f"bench-smoke: FAIL: cannot read {path}: {err}",
            file=sys.stderr,
        )
        sys.exit(1)

    if kernel_mode:
        floor = float(os.environ.get("BENCH_KERNEL_FLOOR", "1.3"))
        ok, message = evaluate_kernel(report, floor)
    elif geometry_mode:
        ok, message = evaluate_geometry(report)
    elif cache_mode:
        floor = float(os.environ.get("BENCH_CACHE_FLOOR", "2.0"))
        ok, message = evaluate_cache(report, floor)
    elif snapshot_mode:
        floor = float(os.environ.get("BENCH_SNAPSHOT_FLOOR", "5.0"))
        ok, message = evaluate_snapshot(report, floor)
    else:
        floor = float(os.environ.get("BENCH_SMOKE_FLOOR", "1.5"))
        ok, message = evaluate(report, floor)
    if not ok:
        print(f"bench-smoke: FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"bench-smoke: PASS: {message}")


if __name__ == "__main__":
    main()
