#!/usr/bin/env python3
"""Gate over the toprr_loadgen JSON report (the serve-smoke CI job).

Reads the single JSON object toprr_loadgen writes and fails (exit 1,
one-line message) when:

  * the report is missing, unreadable, or not the expected shape,
  * zero queries completed (the serving path never worked end to end),
  * any protocol error occurred (framing/decoding must be airtight on
    loopback), or
  * the p99 RPC latency exceeds the bound (SERVE_SMOKE_P99_MS env var,
    default 10000 ms -- generous on purpose: this is a smoke test on a
    shared CI core, not a performance gate).

Rejected-by-admission-control queries are reported but do not fail the
gate: backpressure under a saturating loadgen is correct behavior.

--cache mode applies every check above to a `toprr_loadgen --zipf`
report taken against a `toprr_serve --cache` server, then additionally
fails when:

  * the report has no `cache` block (old loadgen, or --zipf not passed),
  * any query was classified bypass (the server ran without --cache, so
    the replay never exercised the region cache),
  * the zipf-replay hit rate is below the floor (SERVE_SMOKE_HIT_RATE
    env var, default 0.5), or
  * the hits saved zero partition tasks (cache plumbing broken).

--churn mode gates a `toprr_loadgen --zipf --churn` report (a writer
publishing mutation deltas during the replay against a cache-enabled
server): every base and cache check above, with the same
SERVE_SMOKE_HIT_RATE floor (cached regions outlive the publishes that
leave their k-skyband unchanged), plus it fails when:

  * the report has no `churn` block or the writer never ran
    (enabled false / zero publishes),
  * any stage/publish ack came back non-OK (publish_failures),
  * any post-publish query observed a snapshot_seq older than its own
    publish ack (ryw_violations -- the read-your-writes contract), or
  * any connection saw its snapshot_seq stream regress
    (seq_regressions -- the monotone stamp ordering).

--chaos mode gates a `toprr_loadgen --retries --deadline_ms --churn`
report taken THROUGH toprr_chaosproxy (resets, truncations, stalls past
the idle timeout) with a server drain + restart mid-run. Transient
failure is the point of the exercise, so the base protocol-errors and
latency checks do NOT apply; what must hold is that the system degrades
and recovers cleanly:

  * the report carries the resilience fields (attempted_queries,
    retries, reconnects -- old loadgen or --retries not passed
    otherwise),
  * no worker thread died (dead_workers -- every error class must be
    survivable),
  * the run actually saw chaos (zero reconnects means the proxy never
    broke a connection and the phase tested nothing),
  * the churn writer stayed healthy end to end: publishes happened,
    every eventually-delivered ack was OK, zero duplicate publishes
    (idempotency dedupe held across retried Publish RPCs), zero
    read-your-writes violations, zero snapshot_seq regressions, and
  * the ultimately-completed fraction meets the floor
    (CHAOS_COMPLETION_FLOOR env var, default 0.9): retries must
    actually recover the load, not just count failures. Queries
    answered REJECTED_DRAINING during the scripted drain+restart are
    deliberate typed rejections (like admission control in the base
    gate) and leave the denominator; terminally-lost queries stay in.

--crash mode gates a `toprr_loadgen --retries --churn --expect_durable`
report taken against a `toprr_serve --data_dir` server that was killed
with SIGKILL mid-run and restarted from the same directory. Every
chaos-mode check applies (with the relaxed CRASH_COMPLETION_FLOOR,
default 0.5 -- the restart window swallows more attempts than proxy
chaos does), plus the durability contract:

  * the report has an enabled `durable` block (old loadgen, or
    --expect_durable not passed),
  * zero acked publishes were lost across the kill -9 (lost_publishes
    -- the WAL-before-ack invariant),
  * recovery was bit-identical: no snapshot seq ever came back with a
    different snapshot id before vs after the crash
    (snapshot_id_mismatches), and
  * the final catalog audit ran and passed (final_info_ok -- the
    served catalog's last seq covers every acked publish).

Usage: check_serve_smoke.py loadgen.json
       check_serve_smoke.py --cache loadgen_cache.json
       check_serve_smoke.py --churn loadgen_churn.json
       check_serve_smoke.py --chaos loadgen_chaos.json
       check_serve_smoke.py --crash loadgen_crash.json
Self-test: check_serve_smoke.py --self-test
"""

import json
import os
import sys


def evaluate(report, p99_bound_ms):
    """Returns (ok, one_line_message) for a parsed loadgen report."""
    if not isinstance(report, dict):
        return False, "report is not a JSON object"
    completed = report.get("completed_queries")
    protocol_errors = report.get("protocol_errors")
    latency = report.get("latency_ms")
    if completed is None or protocol_errors is None or not isinstance(
            latency, dict):
        return False, (
            "report missing completed_queries/protocol_errors/latency_ms "
            "(did toprr_loadgen finish?)"
        )
    p99 = latency.get("p99", 0.0)
    summary = (
        f"{completed} completed, {report.get('rejected_queries', 0)} "
        f"rejected, {protocol_errors} protocol errors, "
        f"p99 {p99:.1f}ms (bound {p99_bound_ms:.0f}ms)"
    )
    if completed <= 0:
        return False, f"no queries completed -- {summary}"
    if protocol_errors != 0:
        first = report.get("first_error", "")
        return False, f"protocol errors -- {summary}" + (
            f" (first: {first})" if first else ""
        )
    if p99 > p99_bound_ms:
        return False, f"p99 over bound -- {summary}"
    return True, summary


def evaluate_cache(report, p99_bound_ms, hit_rate_floor):
    """Returns (ok, one_line_message) for a zipf replay against a
    cache-enabled server: the base gate plus cache-health checks."""
    ok, base = evaluate(report, p99_bound_ms)
    if not ok:
        return False, base
    cache = report.get("cache")
    if not isinstance(cache, dict):
        return False, (
            "report has no cache block (did toprr_loadgen run with "
            "--zipf against this server?)"
        )
    hit_rate = cache.get("hit_rate", 0.0)
    tasks_saved = cache.get("tasks_saved", 0)
    bypass = cache.get("bypass", 0)
    summary = (
        f"{base}; cache hit rate {hit_rate:.3f} "
        f"(floor {hit_rate_floor:.2f}), {cache.get('hits', 0)} hits / "
        f"{cache.get('partial_hits', 0)} partial / "
        f"{cache.get('misses', 0)} misses, "
        f"{tasks_saved} partition tasks saved"
    )
    if bypass != 0:
        return False, (
            f"{bypass} queries classified bypass -- the server is not "
            "running with --cache, so the replay never exercised the "
            "region cache"
        )
    if hit_rate < hit_rate_floor:
        return False, (
            f"zipf replay hit rate {hit_rate:.3f} below the "
            f"{hit_rate_floor:.2f} floor -- {summary}"
        )
    if tasks_saved <= 0:
        return False, (
            "zero partition tasks saved: hits never clipped a stored "
            f"region -- {summary}"
        )
    return True, summary


def evaluate_churn(report, p99_bound_ms, hit_rate_floor):
    """Returns (ok, one_line_message) for a zipf replay with a live
    mutation writer: the cache gate plus the protocol-v3 ordering
    contracts (writer health, read-your-writes, monotone stamps)."""
    ok, base = evaluate_cache(report, p99_bound_ms, hit_rate_floor)
    if not ok:
        return False, base
    churn = report.get("churn")
    if not isinstance(churn, dict) or not churn.get("enabled", False):
        return False, (
            "report has no active churn block (did toprr_loadgen run "
            "with --churn?)"
        )
    publishes = churn.get("publishes", 0)
    publish_failures = churn.get("publish_failures", 0)
    ryw_violations = churn.get("ryw_violations", 0)
    seq_regressions = churn.get("seq_regressions", 0)
    summary = (
        f"{base}; {publishes} publishes "
        f"({churn.get('staged_rows', 0)} rows / "
        f"{churn.get('staged_deletes', 0)} deletes staged), "
        f"{ryw_violations} ryw violations, "
        f"{seq_regressions} seq regressions, "
        f"last snapshot seq {churn.get('last_snapshot_seq', 0)}"
    )
    if publishes <= 0:
        return False, f"churn writer never published -- {summary}"
    if publish_failures != 0:
        return False, (
            f"{publish_failures} stage/publish acks were not OK -- "
            f"{summary}"
        )
    if ryw_violations != 0:
        return False, (
            f"read-your-writes broken: {ryw_violations} post-publish "
            f"queries saw a pre-publish snapshot -- {summary}"
        )
    if seq_regressions != 0:
        return False, (
            f"snapshot_seq regressed {seq_regressions} times on a "
            f"connection -- {summary}"
        )
    return True, summary


def evaluate_chaos(report, completion_floor):
    """Returns (ok, one_line_message) for a retrying loadgen run driven
    through the chaos proxy: recovery and ordering contracts, not the
    zero-transient-errors contract of the clean-loopback modes."""
    if not isinstance(report, dict):
        return False, "report is not a JSON object"
    attempted = report.get("attempted_queries")
    completed = report.get("completed_queries")
    retries = report.get("retries")
    reconnects = report.get("reconnects")
    dead_workers = report.get("dead_workers")
    if attempted is None or retries is None or reconnects is None:
        return False, (
            "report missing attempted_queries/retries/reconnects "
            "(old toprr_loadgen, or --retries not passed?)"
        )
    completed = completed or 0
    # REJECTED_DRAINING is a deliberate typed answer during the scripted
    # drain+restart -- correct behavior, like admission-control
    # rejections in the base gate -- so it leaves the denominator.
    # Queries lost terminally (retries exhausted) stay in it.
    eligible = max(1, attempted - report.get("rejected_draining", 0))
    ratio = completed / eligible
    summary = (
        f"{completed}/{eligible} eligible completed ({ratio:.3f}, floor "
        f"{completion_floor:.2f}), {retries} retries, {reconnects} "
        f"reconnects, {report.get('deadline_exceeded', 0)} deadline "
        f"exceeded, {report.get('rejected_draining', 0)} rejected "
        f"draining, {dead_workers} dead workers"
    )
    if attempted <= 0 or completed <= 0:
        return False, f"no queries completed under chaos -- {summary}"
    if dead_workers is None or dead_workers != 0:
        return False, (
            f"{dead_workers} loadgen workers died: an error class was "
            f"not survivable -- {summary}"
        )
    if reconnects <= 0:
        return False, (
            "zero reconnects: the proxy never broke a connection, so "
            f"this phase tested nothing -- {summary}"
        )
    churn = report.get("churn")
    if not isinstance(churn, dict) or not churn.get("enabled", False):
        return False, (
            "report has no active churn block (the chaos phase must "
            "exercise the mutation path; pass --churn)"
        )
    publishes = churn.get("publishes", 0)
    duplicates = churn.get("duplicate_publishes", 0)
    summary += (
        f"; {publishes} publishes "
        f"({churn.get('publishes_deduped', 0)} deduped), "
        f"{duplicates} duplicates, "
        f"{churn.get('ryw_violations', 0)} ryw violations, "
        f"{churn.get('seq_regressions', 0)} seq regressions"
    )
    if publishes <= 0:
        return False, f"churn writer never published -- {summary}"
    if churn.get("publish_failures", 0) != 0:
        return False, (
            f"{churn['publish_failures']} mutation RPCs failed "
            f"terminally despite retries -- {summary}"
        )
    if duplicates != 0:
        return False, (
            f"idempotency dedupe broken: {duplicates} retried publishes "
            f"were applied twice -- {summary}"
        )
    if churn.get("ryw_violations", 0) != 0:
        return False, (
            "read-your-writes broken under chaos: "
            f"{churn['ryw_violations']} post-publish queries saw a "
            f"pre-publish snapshot -- {summary}"
        )
    if churn.get("seq_regressions", 0) != 0:
        return False, (
            f"snapshot_seq regressed {churn['seq_regressions']} times "
            f"on a stable connection -- {summary}"
        )
    if ratio < completion_floor:
        return False, (
            f"completion ratio {ratio:.3f} below the "
            f"{completion_floor:.2f} floor: retries did not recover the "
            f"load -- {summary}"
        )
    return True, summary


def evaluate_crash(report, completion_floor):
    """Returns (ok, one_line_message) for a retrying durable-churn run
    across a kill -9 server restart: every chaos-mode recovery check
    plus the crash-durability contract (no acked publish lost, recovery
    bit-identical, final catalog audit clean)."""
    ok, base = evaluate_chaos(report, completion_floor)
    if not ok:
        return False, base
    durable = report.get("durable")
    if not isinstance(durable, dict) or not durable.get("enabled", False):
        return False, (
            "report has no active durable block (the crash phase must "
            "verify durability; pass --expect_durable)"
        )
    lost = durable.get("lost_publishes", 0)
    mismatches = durable.get("snapshot_id_mismatches", 0)
    summary = (
        f"{base}; durable: {lost} lost publishes, {mismatches} "
        f"snapshot-id mismatches, final seq "
        f"{durable.get('final_snapshot_seq', 0)} "
        f"(id {durable.get('final_snapshot_id', '?')})"
    )
    if lost != 0:
        return False, (
            f"durability broken: {lost} acked publishes missing after "
            f"the kill -9 restart -- {summary}"
        )
    if mismatches != 0:
        return False, (
            f"recovery not bit-identical: {mismatches} snapshot seqs "
            f"came back with a different snapshot id -- {summary}"
        )
    if not durable.get("final_info_ok", False):
        return False, (
            "final catalog audit failed: the loadgen could not confirm "
            f"the served catalog covers every acked publish -- {summary}"
        )
    return True, summary


def self_test():
    good = {
        "completed_queries": 100,
        "rejected_queries": 5,
        "protocol_errors": 0,
        "latency_ms": {"p50": 1.0, "p90": 2.0, "p99": 3.0, "max": 4.0},
    }
    ok, _ = evaluate(good, 1000.0)
    assert ok, "well-formed passing report must pass"

    ok, message = evaluate({}, 1000.0)
    assert not ok and "missing" in message, "empty report must fail clearly"

    ok, message = evaluate(dict(good, completed_queries=0), 1000.0)
    assert not ok and "no queries completed" in message

    ok, message = evaluate(dict(good, protocol_errors=3), 1000.0)
    assert not ok and "protocol errors" in message

    slow = dict(good, latency_ms={"p99": 5000.0})
    ok, message = evaluate(slow, 1000.0)
    assert not ok and "p99 over bound" in message

    ok, message = evaluate([1, 2, 3], 1000.0)
    assert not ok, "non-object JSON must fail, not crash"

    # Rejections alone do not fail the gate.
    ok, _ = evaluate(dict(good, rejected_queries=10**6), 1000.0)
    assert ok

    good_cache = dict(good, cache={
        "hits": 90, "partial_hits": 5, "misses": 5, "bypass": 0,
        "hit_rate": 0.95, "tasks_saved": 12345,
    })
    ok, _ = evaluate_cache(good_cache, 1000.0, 0.5)
    assert ok, "healthy cache replay must pass"

    # The base gate still applies in --cache mode.
    ok, message = evaluate_cache(
        dict(good_cache, protocol_errors=1), 1000.0, 0.5)
    assert not ok and "protocol errors" in message

    ok, message = evaluate_cache(good, 1000.0, 0.5)
    assert not ok and "no cache block" in message

    ok, message = evaluate_cache(
        dict(good, cache=dict(good_cache["cache"], bypass=7)), 1000.0, 0.5)
    assert not ok and "bypass" in message

    ok, message = evaluate_cache(
        dict(good, cache=dict(good_cache["cache"], hit_rate=0.2)),
        1000.0, 0.5)
    assert not ok and "hit rate" in message

    ok, message = evaluate_cache(
        dict(good, cache=dict(good_cache["cache"], tasks_saved=0)),
        1000.0, 0.5)
    assert not ok and "zero partition tasks saved" in message

    good_churn = dict(good_cache, churn={
        "enabled": True, "publishes": 20, "staged_rows": 80,
        "staged_deletes": 60, "publish_failures": 0,
        "ryw_violations": 0, "seq_regressions": 0,
        "last_snapshot_seq": 21,
    })
    ok, _ = evaluate_churn(good_churn, 1000.0, 0.5)
    assert ok, "healthy churn replay must pass"

    # The base and cache gates still apply in --churn mode.
    ok, message = evaluate_churn(
        dict(good_churn, protocol_errors=2), 1000.0, 0.5)
    assert not ok and "protocol errors" in message
    ok, message = evaluate_churn(
        dict(good_churn, cache=dict(good_cache["cache"], hit_rate=0.1)),
        1000.0, 0.5)
    assert not ok and "hit rate" in message

    ok, message = evaluate_churn(good_cache, 1000.0, 0.5)
    assert not ok and "no active churn block" in message

    ok, message = evaluate_churn(
        dict(good_churn, churn=dict(good_churn["churn"], enabled=False)),
        1000.0, 0.5)
    assert not ok and "no active churn block" in message

    ok, message = evaluate_churn(
        dict(good_churn, churn=dict(good_churn["churn"], publishes=0)),
        1000.0, 0.5)
    assert not ok and "never published" in message

    ok, message = evaluate_churn(
        dict(good_churn,
             churn=dict(good_churn["churn"], publish_failures=3)),
        1000.0, 0.5)
    assert not ok and "not OK" in message

    ok, message = evaluate_churn(
        dict(good_churn,
             churn=dict(good_churn["churn"], ryw_violations=1)),
        1000.0, 0.5)
    assert not ok and "read-your-writes" in message

    ok, message = evaluate_churn(
        dict(good_churn,
             churn=dict(good_churn["churn"], seq_regressions=2)),
        1000.0, 0.5)
    assert not ok and "regressed" in message

    good_chaos = {
        "attempted_queries": 1000,
        "completed_queries": 960,
        "protocol_errors": 12,  # expected under chaos; must NOT fail
        "deadline_exceeded": 4,
        "rejected_draining": 3,
        "retries": 40,
        "reconnects": 9,
        "dead_workers": 0,
        "latency_ms": {"p99": 99999.0},  # latency gate must NOT apply
        "churn": {
            "enabled": True, "publishes": 30, "publishes_deduped": 2,
            "duplicate_publishes": 0, "publish_failures": 0,
            "ryw_violations": 0, "seq_regressions": 0,
        },
    }
    ok, _ = evaluate_chaos(good_chaos, 0.9)
    assert ok, "recovered chaos run must pass despite transient errors"

    ok, message = evaluate_chaos(good, 0.9)
    assert not ok and "missing attempted_queries" in message

    ok, message = evaluate_chaos(
        dict(good_chaos, completed_queries=500), 0.9)
    assert not ok and "completion ratio" in message

    ok, message = evaluate_chaos(dict(good_chaos, dead_workers=1), 0.9)
    assert not ok and "died" in message

    ok, message = evaluate_chaos(dict(good_chaos, reconnects=0), 0.9)
    assert not ok and "zero reconnects" in message

    ok, message = evaluate_chaos(
        dict(good_chaos,
             churn=dict(good_chaos["churn"], duplicate_publishes=1)),
        0.9)
    assert not ok and "dedupe broken" in message

    ok, message = evaluate_chaos(
        dict(good_chaos,
             churn=dict(good_chaos["churn"], ryw_violations=1)), 0.9)
    assert not ok and "read-your-writes" in message

    ok, message = evaluate_chaos(
        dict(good_chaos,
             churn=dict(good_chaos["churn"], publish_failures=2)), 0.9)
    assert not ok and "terminally" in message

    ok, message = evaluate_chaos(
        dict(good_chaos,
             churn=dict(good_chaos["churn"], seq_regressions=1)), 0.9)
    assert not ok and "regressed" in message

    ok, message = evaluate_chaos(dict(good_chaos, churn=None), 0.9)
    assert not ok and "no active churn block" in message

    good_crash = dict(good_chaos, durable={
        "enabled": True, "lost_publishes": 0,
        "snapshot_id_mismatches": 0, "final_info_ok": True,
        "final_snapshot_seq": 31, "final_snapshot_id": "00deadbeef00f00d",
    })
    ok, _ = evaluate_crash(good_crash, 0.5)
    assert ok, "recovered kill -9 run must pass"

    # The chaos gates still apply in --crash mode.
    ok, message = evaluate_crash(dict(good_crash, dead_workers=1), 0.5)
    assert not ok and "died" in message
    ok, message = evaluate_crash(
        dict(good_crash,
             churn=dict(good_chaos["churn"], duplicate_publishes=1)), 0.5)
    assert not ok and "dedupe broken" in message

    ok, message = evaluate_crash(good_chaos, 0.5)
    assert not ok and "no active durable block" in message

    ok, message = evaluate_crash(
        dict(good_crash,
             durable=dict(good_crash["durable"], enabled=False)), 0.5)
    assert not ok and "no active durable block" in message

    ok, message = evaluate_crash(
        dict(good_crash,
             durable=dict(good_crash["durable"], lost_publishes=2)), 0.5)
    assert not ok and "durability broken" in message

    ok, message = evaluate_crash(
        dict(good_crash,
             durable=dict(good_crash["durable"],
                          snapshot_id_mismatches=1)), 0.5)
    assert not ok and "bit-identical" in message

    ok, message = evaluate_crash(
        dict(good_crash,
             durable=dict(good_crash["durable"], final_info_ok=False)),
        0.5)
    assert not ok and "final catalog audit" in message
    print("serve-smoke: self-test PASS")


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        self_test()
        return
    mode = "base"
    if len(sys.argv) == 3 and sys.argv[1] in ("--cache", "--churn",
                                              "--chaos", "--crash"):
        mode = sys.argv[1][2:]
    elif len(sys.argv) != 2:
        print(
            f"serve-smoke: FAIL: usage: {sys.argv[0]} "
            "[--cache|--churn|--chaos|--crash] <loadgen.json>",
            file=sys.stderr,
        )
        sys.exit(1)
    path = sys.argv[2] if mode != "base" else sys.argv[1]
    p99_bound_ms = float(os.environ.get("SERVE_SMOKE_P99_MS", "10000"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(
            f"serve-smoke: FAIL: cannot read {path}: {err}",
            file=sys.stderr,
        )
        sys.exit(1)
    if mode == "crash":
        completion_floor = float(
            os.environ.get("CRASH_COMPLETION_FLOOR", "0.5"))
        ok, message = evaluate_crash(report, completion_floor)
    elif mode == "chaos":
        completion_floor = float(
            os.environ.get("CHAOS_COMPLETION_FLOOR", "0.9"))
        ok, message = evaluate_chaos(report, completion_floor)
    elif mode in ("churn", "cache"):
        hit_rate_floor = float(
            os.environ.get("SERVE_SMOKE_HIT_RATE", "0.5"))
        evaluator = evaluate_churn if mode == "churn" else evaluate_cache
        ok, message = evaluator(report, p99_bound_ms, hit_rate_floor)
    else:
        ok, message = evaluate(report, p99_bound_ms)
    if not ok:
        print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"serve-smoke: PASS: {message}")


if __name__ == "__main__":
    main()
