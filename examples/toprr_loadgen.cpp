// toprr_loadgen: closed-loop load generator for toprr_serve.
//
// Drives N concurrent connections, each issuing random query batches
// back-to-back for a fixed duration, and reports throughput and latency
// percentiles as a single JSON object (consumed by ci/check_serve_smoke.py;
// flag and reporting conventions follow bench/bench_common.h).
//
//   toprr_loadgen --port 7077 --connections 4 --duration 10 --batch 8
//
// --zipf switches from i.i.d. random boxes to a skewed repeated-query
// mix: a fixed set of --profiles clientele boxes is drawn once from the
// shared seed (identical across connections and runs), and every query
// samples a profile Zipf(s)-distributed, then jitters it by less than
// half a cache grid cell. Popular clienteles repeat, so a cache-enabled
// server converges to hits; the JSON report gains a "cache" block with
// per-class solve-time percentiles (consumed by
// ci/check_serve_smoke.py --cache).
//
// --churn adds one writer connection alongside the query workers: it
// stages --churn_rows random inserts (and, once its own inserts have
// landed, deletes of them) and publishes every --churn_interval seconds
// over the protocol v3 mutation RPCs. After each publish the writer
// issues a query on the same connection and requires the response's
// snapshot_seq to be >= the publish ack's seq (read-your-writes); query
// workers require their per-connection snapshot_seq stream to be
// monotone non-decreasing. Violations land in the JSON "churn" block
// (consumed by ci/check_serve_smoke.py --churn) and fail the exit code.
//
// --retries N (> 1) arms the client-side retry policy: workers survive
// connection loss, server restarts, and injected faults (see
// examples/toprr_chaosproxy.cpp), transparently reconnecting with
// backoff; per-error-class counts plus "retries"/"reconnects" land in
// the JSON (consumed by ci/check_serve_smoke.py --chaos), and only
// correctness violations -- duplicate publishes, read-your-writes or
// ordering breaks, dead workers -- fail the exit code. --deadline_ms
// attaches a deadline to every batch, enforced server-side
// (DEADLINE_EXCEEDED) and as a local socket timeout.
// --expect_durable (with --churn against a --data_dir server) switches
// the writer to durable verification: row-id bookkeeping and the
// publish-growth accounting survive reconnects instead of re-baselining,
// because a crash-restarted durable server must recover every acked
// publish bit-identically. Acked-row loss, duplicate applies, snapshot
// ids that differ across the restart for the same seq, and a final
// catalog seq below the max acked seq all land in the JSON "durable"
// block (consumed by ci/check_serve_smoke.py --crash) and fail the exit
// code.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/engine.h"
#include "pref/pref_space.h"
#include "serve/client.h"

namespace {

using namespace toprr;

// Per-worker failure-hardening knobs (defaults = the pre-retry behavior).
struct Resilience {
  int attempts = 1;               // client RetryPolicy::max_attempts
  double deadline_seconds = 0.0;  // per-batch deadline (0 = none)
};

// Outcome of one connection's run (merged after the join).
struct WorkerReport {
  std::vector<double> rpc_millis;  // per-round-trip latency
  uint64_t attempted = 0;          // queries sent (or retried to death)
  uint64_t completed = 0;          // queries answered kOk
  uint64_t rejected = 0;           // kRejectedOverload
  uint64_t budget_exceeded = 0;
  uint64_t deadline_exceeded = 0;  // kDeadlineExceeded answers
  uint64_t rejected_draining = 0;  // kRejectedDraining answers
  uint64_t other_statuses = 0;     // kShutdown etc.
  uint64_t protocol_errors = 0;    // decode/alignment failures
  uint64_t transport_errors = 0;   // connection-level failures
  uint64_t timeout_errors = 0;     // client-side deadline expiries
  uint64_t retries = 0;            // client's re-sent attempts
  uint64_t reconnects = 0;         // client's internal reconnect cycles
  bool died = false;               // gave up before the duration elapsed
  std::string first_error;

  // Region-cache outcomes reported back by the server (ServeQueryStats),
  // plus per-class server-side solve times for the percentile lines.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_bypass = 0;
  uint64_t cache_tasks_saved = 0;
  std::vector<double> hit_solve_millis;
  std::vector<double> miss_solve_millis;

  // Snapshot-stamp ordering (protocol v3): every response carries the
  // served snapshot_seq, which must never regress on one connection.
  uint64_t seq_regressions = 0;
  uint64_t last_snapshot_seq = 0;
};

// Outcome of the single --churn writer connection.
struct ChurnReport {
  uint64_t publishes = 0;
  uint64_t staged_rows = 0;
  uint64_t staged_deletes = 0;
  uint64_t publish_failures = 0;   // stage/publish acks other than kOk
  uint64_t publishes_deduped = 0;  // retried Publish answered already_applied
  uint64_t duplicate_publishes = 0;  // the delta landed more than once
  uint64_t ryw_violations = 0;     // post-publish query saw an older seq
  uint64_t protocol_errors = 0;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  uint64_t last_snapshot_seq = 0;

  // Durable verification (--expect_durable): acked-publish loss,
  // double-applies, and snapshot-id identity across restarts.
  uint64_t lost_publishes = 0;   // catalog grew less than the acked delta
  uint64_t snapshot_id_mismatches = 0;  // same seq, different id
  uint64_t last_snapshot_id = 0;
  uint64_t final_snapshot_seq = 0;  // closing CatalogInfo after the run
  uint64_t final_snapshot_id = 0;
  bool final_info_ok = false;
  std::string final_info_message;  // the server's durability one-liner

  bool died = false;
  std::string first_error;
};

// The zipf query mix: profile boxes plus the sampling distribution.
struct ZipfMix {
  std::vector<PrefBox> profiles;
  std::vector<double> cdf;  // cumulative Zipf(s) weights, cdf.back() == 1
  double quantum = 1.0 / 256.0;
};

// Draws the shared profile set: boxes whose corners sit at grid-cell
// CENTERS ((m + 0.5) * quantum), so the later +-0.4-cell jitter never
// crosses a cell boundary and every jittered copy canonicalizes to the
// same cached box. Deterministic in `seed` alone -- every connection
// (and every run) sees the same profiles.
ZipfMix BuildZipfMix(size_t dim, double sigma, double s, int profiles,
                     double quantum, uint64_t seed) {
  ZipfMix mix;
  mix.quantum = quantum;
  const double cells = 1.0 / quantum;
  // Box side in whole cells (at least one).
  const int64_t width =
      std::max<int64_t>(1, static_cast<int64_t>(std::lround(sigma * cells)));
  Rng rng(seed);
  while (mix.profiles.size() < static_cast<size_t>(profiles)) {
    PrefBox box;
    box.lo = Vec(dim);
    box.hi = Vec(dim);
    PrefBox canonical;  // what the cache will snap the box out to
    canonical.lo = Vec(dim);
    canonical.hi = Vec(dim);
    bool in_range = true;
    for (size_t j = 0; j < dim; ++j) {
      const int64_t max_lo_cell =
          static_cast<int64_t>(cells) - width - 1;
      if (max_lo_cell < 1) {
        in_range = false;
        break;
      }
      const int64_t cell = rng.UniformInt(1, max_lo_cell);
      box.lo[j] = (static_cast<double>(cell) + 0.5) * quantum;
      box.hi[j] = (static_cast<double>(cell + width) + 0.5) * quantum;
      canonical.lo[j] = static_cast<double>(cell) * quantum;
      canonical.hi[j] = static_cast<double>(cell + width + 1) * quantum;
    }
    // The snapped-out canonical box is what must fit in the simplex;
    // rejection-sample until it does (cheap for the paper's sigma <= 5%).
    if (in_range && canonical.InsideSimplex()) {
      mix.profiles.push_back(std::move(box));
    }
  }
  // Zipf(s) over profile ranks: weight 1/(i+1)^s, as a sampling CDF.
  mix.cdf.resize(mix.profiles.size());
  double total = 0.0;
  for (size_t i = 0; i < mix.cdf.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    mix.cdf[i] = total;
  }
  for (double& c : mix.cdf) c /= total;
  return mix;
}

// One zipf query: sample a profile, shift the whole box by under half a
// grid cell per axis. The shift keeps every corner inside its original
// cell, so the canonical (cache) box is jitter-invariant.
PrefBox SampleZipfBox(const ZipfMix& mix, Rng& rng) {
  const double u = rng.Uniform();
  const size_t pick =
      std::lower_bound(mix.cdf.begin(), mix.cdf.end(), u) - mix.cdf.begin();
  PrefBox box = mix.profiles[std::min(pick, mix.profiles.size() - 1)];
  for (size_t j = 0; j < box.dim(); ++j) {
    const double delta = (rng.Uniform() - 0.5) * 0.8 * mix.quantum;
    box.lo[j] += delta;
    box.hi[j] += delta;
  }
  return box;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// Classifies a failed RPC into the per-error-class counters.
void CountClientError(const serve::ToprrClient& client, uint64_t* protocol,
                      uint64_t* transport, uint64_t* timeout,
                      std::string* first_error) {
  switch (client.last_error_code()) {
    case serve::ClientError::kTimeout:
      ++*timeout;
      break;
    case serve::ClientError::kProtocol:
      ++*protocol;
      break;
    default:
      ++*transport;
      break;
  }
  if (first_error->empty()) *first_error = client.last_error();
}

void RunConnection(const std::string& host, int port, size_t dim, int k,
                   double sigma, int batch, double budget_seconds,
                   double duration_seconds, uint64_t seed,
                   const ZipfMix* mix, const Resilience& resilience,
                   bool expect_durable, WorkerReport* report) {
  serve::ToprrClient client;
  const bool retrying = resilience.attempts > 1;
  if (retrying) {
    serve::RetryPolicy policy;
    policy.max_attempts = resilience.attempts;
    client.set_retry_policy(policy);
  }
  serve::QueryOptions query_options;
  query_options.deadline_seconds = resilience.deadline_seconds;
  if (!client.Connect(host, port)) {
    if (!retrying) {
      ++report->transport_errors;
      report->first_error = client.last_error();
      report->died = true;
      return;
    }
    // With retry on, the first QueryBatch below reconnects internally.
    if (report->first_error.empty()) report->first_error = client.last_error();
  }
  Rng rng(seed);
  Timer clock;
  while (clock.Seconds() < duration_seconds) {
    std::vector<ToprrQuery> queries;
    queries.reserve(static_cast<size_t>(batch));
    for (int q = 0; q < batch; ++q) {
      ToprrOptions options;
      options.build_geometry = false;  // serving latency, not geometry
      options.time_budget_seconds = budget_seconds;
      queries.push_back(ToprrQuery::FromBox(
          k,
          mix != nullptr ? SampleZipfBox(*mix, rng)
                         : RandomPrefBox(dim, sigma, rng),
          options));
    }
    report->attempted += queries.size();
    Timer rpc;
    auto responses = client.QueryBatch(queries, query_options);
    if (!responses.has_value()) {
      CountClientError(client, &report->protocol_errors,
                       &report->transport_errors, &report->timeout_errors,
                       &report->first_error);
      if (!retrying) {
        // The client closed the broken connection; reconnect and go on
        // so one hiccup does not silence a whole worker.
        if (!client.Connect(host, port)) {
          report->died = true;
          break;
        }
        continue;
      }
      // Retries are already spent; breathe so an extended outage does
      // not turn this worker into a busy loop, then try the next batch.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    report->rpc_millis.push_back(rpc.Millis());
    if (client.reconnects() != report->reconnects) {
      // The batch crossed an internal reconnect. If the server was
      // restarted, its snapshot seq restarted too -- re-baseline the
      // per-connection monotonicity check instead of flagging it.
      // UNLESS the server is durable: recovery resumes the seq chain
      // where the crash cut it, so a regression across the restart is a
      // real violation and the baseline must survive the reconnect.
      report->reconnects = client.reconnects();
      if (!expect_durable) report->last_snapshot_seq = 0;
    }
    for (const serve::ServeResponse& response : *responses) {
      switch (response.status) {
        case serve::ServeStatus::kOk:
          ++report->completed;
          break;
        case serve::ServeStatus::kRejectedOverload:
          ++report->rejected;
          break;
        case serve::ServeStatus::kBudgetExceeded:
          ++report->budget_exceeded;
          break;
        case serve::ServeStatus::kDeadlineExceeded:
          ++report->deadline_exceeded;
          break;
        case serve::ServeStatus::kRejectedDraining:
          ++report->rejected_draining;
          break;
        default:
          ++report->other_statuses;
          break;
      }
      const double solve_millis = response.stats.total_seconds * 1000.0;
      switch (static_cast<serve::CacheLookup>(response.stats.cache_lookup)) {
        case serve::CacheLookup::kHit:
          ++report->cache_hits;
          report->hit_solve_millis.push_back(solve_millis);
          break;
        case serve::CacheLookup::kMiss:
          ++report->cache_misses;
          report->miss_solve_millis.push_back(solve_millis);
          break;
        case serve::CacheLookup::kPartial:  // reserved; never answered
        case serve::CacheLookup::kBypass:
          ++report->cache_bypass;
          break;
      }
      report->cache_tasks_saved += response.stats.cache_tasks_saved;
      if (response.snapshot_seq < report->last_snapshot_seq) {
        ++report->seq_regressions;
      } else {
        report->last_snapshot_seq = response.snapshot_seq;
      }
    }
  }
  report->retries = client.retries();
  report->reconnects = client.reconnects();
}

// The --churn writer: keeps publishing small deltas for the whole run.
// Inserted row ids are derived from the publish acks (single writer:
// the batch lands at [previous physical_rows, ack.physical_rows)), so
// once enough of its own rows are live it deletes the oldest ones back
// out and the dataset size stays roughly flat.
void RunChurnWriter(const std::string& host, int port, size_t data_dim,
                    int k, double sigma, double interval_seconds,
                    int rows_per_publish, double duration_seconds,
                    uint64_t seed, const Resilience& resilience,
                    bool expect_durable, ChurnReport* report) {
  serve::ToprrClient client;
  const bool retrying = resilience.attempts > 1;
  if (retrying) {
    serve::RetryPolicy policy;
    policy.max_attempts = resilience.attempts;
    client.set_retry_policy(policy);
  }
  if (!client.Connect(host, port) && !retrying) {
    ++report->protocol_errors;
    report->first_error = client.last_error();
    report->died = true;
    return;
  }
  // The hello is authoritative when available; before the first
  // successful handshake (retrying through an outage) trust the flag.
  const size_t dim =
      client.server().dim != 0 ? client.server().dim : data_dim;
  uint64_t physical_rows = client.server().physical_rows;
  uint64_t seen_reconnects = client.reconnects();
  std::vector<uint64_t> own_rows;  // our published inserts, oldest first
  // Durable verification state. `pending_*` mirror what the client has
  // staged-but-unpublished (surviving failed rounds), so the growth
  // check stays exact even when a publish spans a crash-restart.
  uint64_t pending_inserts = 0;
  size_t pending_deletes = 0;
  bool publish_pending = false;  // resolve the in-flight publish before
                                 // staging more (durable mode only)
  std::unordered_map<uint64_t, uint64_t> seq_to_id;
  // Snapshot-id identity: recovery must re-derive bit-identical ids, so
  // any two stamps with the same seq -- before or after the crash --
  // must carry the same id.
  const auto note_stamp = [&](uint64_t seq, uint64_t id) {
    if (!expect_durable || id == 0) return;
    const auto inserted = seq_to_id.emplace(seq, id);
    if (!inserted.second && inserted.first->second != id) {
      ++report->snapshot_id_mismatches;
    }
  };
  Rng rng(seed);
  Timer clock;
  const auto fail = [&](const std::string& what) {
    ++report->publish_failures;
    if (report->first_error.empty()) report->first_error = what;
  };
  // An RPC-level failure kills the whole writer without retry (the old
  // behavior); with retry it just skips this churn round -- the sleep at
  // the loop bottom paces the next try.
  const auto rpc_failed = [&]() {
    CountClientError(client, &report->protocol_errors,
                     &report->protocol_errors, &report->protocol_errors,
                     &report->first_error);
    if (!retrying) report->died = true;
    return !retrying;
  };
  // Derived row-id bookkeeping is only sound while the connection (and
  // the server incarnation behind it) is stable. After any reconnect the
  // server may have restarted with a fresh catalog, so drop the id state
  // and re-baseline from the new handshake's hello. A durable server is
  // the exception: its restart recovers the same catalog, so the
  // bookkeeping deliberately survives -- that IS the check.
  const auto rebaseline_if_reconnected = [&]() {
    if (client.reconnects() == seen_reconnects) return false;
    seen_reconnects = client.reconnects();
    if (expect_durable) return true;
    own_rows.clear();
    physical_rows = client.server().physical_rows;
    return true;
  };
  while (clock.Seconds() < duration_seconds) {
    const double sleep_left =
        std::min(interval_seconds, duration_seconds - clock.Seconds());
    size_t rows_this_round = 0;
    size_t deletes = 0;
    if (!publish_pending) {
      std::vector<Vec> rows(static_cast<size_t>(rows_per_publish), Vec(dim));
      for (Vec& row : rows) {
        for (size_t j = 0; j < dim; ++j) row[j] = rng.Uniform();
      }
      auto staged = client.StageInsert(rows);
      rebaseline_if_reconnected();
      if (!staged.has_value()) {
        if (rpc_failed()) return;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(sleep_left));
        continue;
      }
      if (staged->status != serve::MutationStatus::kOk) {
        fail("stage insert: " + staged->message);
        continue;
      }
      report->staged_rows += rows.size();
      pending_inserts += rows.size();
      rows_this_round = rows.size();
      // Delete our oldest inserts once a backlog has built up.
      if (own_rows.size() >= static_cast<size_t>(2 * rows_per_publish)) {
        deletes = static_cast<size_t>(rows_per_publish);
        std::vector<uint64_t> victims(own_rows.begin(),
                                      own_rows.begin() + deletes);
        auto staged_del = client.StageDelete(victims);
        if (rebaseline_if_reconnected() && !expect_durable) deletes = 0;
        if (!staged_del.has_value()) {
          if (rpc_failed()) return;
          deletes = 0;
        } else if (staged_del->status != serve::MutationStatus::kOk) {
          fail("stage delete: " + staged_del->message);
          deletes = 0;
        }
      }
      pending_deletes += deletes;
    }
    const uint64_t reconnects_before_publish = client.reconnects();
    auto published = client.Publish();
    if (!published.has_value()) {
      rebaseline_if_reconnected();
      if (rpc_failed()) return;
      // Durable mode: the delta may or may not have landed; staging MORE
      // on top before this publish resolves would entangle two deltas in
      // one accounting round. Retry the same publish next round instead.
      if (expect_durable) publish_pending = true;
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_left));
      continue;
    }
    if (published->status != serve::MutationStatus::kOk) {
      fail("publish: " + published->message);
      rebaseline_if_reconnected();
      if (expect_durable) publish_pending = true;
      continue;
    }
    ++report->publishes;
    if (published->already_applied) ++report->publishes_deduped;
    publish_pending = false;
    note_stamp(published->snapshot_seq, published->snapshot_id);
    report->last_snapshot_id = published->snapshot_id;
    if (expect_durable) {
      // Durable accounting holds across reconnects AND restarts: the
      // recovered catalog is the same catalog. The publish (fresh or
      // deduped -- either way applied exactly once) must have grown the
      // physical row count by exactly the staged inserts; more means a
      // double-apply, less means an acked row vanished. Netted
      // staged-then-deleted inserts still materialize as tombstones, so
      // physical growth equals staged inserts regardless of deletes.
      const uint64_t grew = published->physical_rows - physical_rows;
      if (grew > pending_inserts) {
        ++report->duplicate_publishes;
      } else if (grew < pending_inserts) {
        ++report->lost_publishes;
      }
      report->staged_deletes += pending_deletes;
      own_rows.erase(own_rows.begin(),
                     own_rows.begin() +
                         static_cast<ptrdiff_t>(
                             std::min(pending_deletes, own_rows.size())));
      for (uint64_t id = physical_rows; id < published->physical_rows;
           ++id) {
        own_rows.push_back(id);
      }
      physical_rows = published->physical_rows;
      pending_inserts = 0;
      pending_deletes = 0;
      seen_reconnects = client.reconnects();
    } else {
      const bool stable_connection =
          client.reconnects() == reconnects_before_publish &&
          reconnects_before_publish == seen_reconnects;
      if (stable_connection && !published->already_applied) {
        // Single writer on a stable incarnation: the publish must have
        // grown the catalog by exactly the rows staged this round. More
        // means the delta landed twice (idempotency failure).
        const uint64_t grew = published->physical_rows - physical_rows;
        if (grew > rows_this_round) ++report->duplicate_publishes;
        report->staged_deletes += deletes;
        own_rows.erase(own_rows.begin(),
                       own_rows.begin() + static_cast<ptrdiff_t>(deletes));
        for (uint64_t id = physical_rows; id < published->physical_rows;
             ++id) {
          own_rows.push_back(id);
        }
        physical_rows = published->physical_rows;
      } else {
        // The publish crossed a reconnect (or was deduped): derived ids
        // are unreliable, start the id bookkeeping over from the ack.
        own_rows.clear();
        physical_rows = published->physical_rows;
        seen_reconnects = client.reconnects();
      }
      pending_inserts = 0;
      pending_deletes = 0;
    }
    report->last_snapshot_seq =
        std::max(report->last_snapshot_seq, published->snapshot_seq);

    // Read-your-writes: the next query on this connection must already
    // be served at (or after) the version the publish ack promised.
    ToprrOptions options;
    options.build_geometry = false;
    auto response = client.Query(ToprrQuery::FromBox(
        k, RandomPrefBox(dim - 1, sigma, rng), options));
    if (!response.has_value()) {
      rebaseline_if_reconnected();
      if (rpc_failed()) return;
    } else {
      note_stamp(response->snapshot_seq, response->snapshot_id);
      if (expect_durable) {
        // A durable restart recovers at (or after) every acked seq, so
        // the promise holds even when a crash separated publish and
        // query -- no reconnect exemption.
        if (response->snapshot_seq < published->snapshot_seq) {
          ++report->ryw_violations;
        }
        rebaseline_if_reconnected();
      } else if (client.reconnects() == seen_reconnects &&
                 response->snapshot_seq < published->snapshot_seq) {
        // Only meaningful when no reconnect separated publish and query:
        // a restarted server legitimately serves a younger seq.
        ++report->ryw_violations;
      } else {
        rebaseline_if_reconnected();
      }
    }
    if (sleep_left > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(sleep_left));
    }
  }
  if (expect_durable) {
    // Closing audit: the catalog the server ends on must sit at (or
    // past) every seq it ever acked to this writer -- across however
    // many kill -9 restarts the run contained.
    auto info = client.CatalogInfo();
    if (info.has_value() && info->status == serve::MutationStatus::kOk) {
      report->final_info_ok = true;
      report->final_snapshot_seq = info->snapshot_seq;
      report->final_snapshot_id = info->snapshot_id;
      report->final_info_message = info->message;
      note_stamp(info->snapshot_seq, info->snapshot_id);
      if (info->snapshot_seq < report->last_snapshot_seq) {
        ++report->lost_publishes;
        if (report->first_error.empty()) {
          report->first_error = "final catalog seq below max acked seq";
        }
      }
    } else if (report->first_error.empty()) {
      report->first_error = "final catalog info failed";
    }
  }
  report->retries = client.retries();
  report->reconnects = client.reconnects();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  std::string host = "127.0.0.1";
  std::string out_path;
  int port = 7077;
  int connections = 4;
  double duration = 10.0;
  int batch = 8;
  int k = 10;
  int d = 4;
  double sigma = 0.01;
  double budget = 0.0;
  int64_t seed = 2019;
  bool zipf = false;
  double zipf_s = 1.2;
  int profiles = 32;
  double quantum = 1.0 / 256.0;
  bool churn = false;
  double churn_interval = 0.25;
  int churn_rows = 4;
  int retries = 1;
  double deadline_ms = 0.0;
  bool expect_durable = false;
  bool help = false;
  flags.AddString("host", &host, "server address");
  flags.AddString("out", &out_path, "write the JSON report here (default: stdout)");
  flags.AddInt("port", &port, "server port");
  flags.AddInt("connections", &connections, "concurrent connections");
  flags.AddDouble("duration", &duration, "run time in seconds");
  flags.AddInt("batch", &batch, "queries per request frame");
  flags.AddInt("k", &k, "rank requirement of the generated queries");
  flags.AddInt("d", &d, "dataset dimensionality the server was started with");
  flags.AddDouble("sigma", &sigma, "random wR side length");
  flags.AddDouble("budget", &budget,
                  "per-query budget request in seconds (0 = server default)");
  flags.AddInt("seed", &seed, "rng seed");
  flags.AddBool("zipf", &zipf,
                "skewed repeated-query mix over a fixed profile set "
                "(exercises the server's region cache)");
  flags.AddDouble("zipf_s", &zipf_s, "zipf skew exponent");
  flags.AddInt("profiles", &profiles, "distinct clientele boxes in the mix");
  flags.AddDouble("quantum", &quantum,
                  "cache grid the profiles align to (must match the "
                  "server's --cache_quantum)");
  flags.AddBool("churn", &churn,
                "run a writer connection publishing mutation deltas "
                "during the replay (protocol v3)");
  flags.AddDouble("churn_interval", &churn_interval,
                  "seconds between churn publishes");
  flags.AddInt("churn_rows", &churn_rows, "rows staged per churn publish");
  flags.AddInt("retries", &retries,
               "attempts per RPC (>1 turns on the client retry policy: "
               "transparent reconnect + backoff; workers then survive "
               "connection loss and server restarts)");
  flags.AddDouble("deadline_ms", &deadline_ms,
                  "per-batch deadline in milliseconds (0 = none); enforced "
                  "server-side AND as a local socket timeout");
  flags.AddBool("expect_durable", &expect_durable,
                "the server runs with --data_dir: verify acked publishes "
                "survive restarts (no loss, no double-apply, bit-identical "
                "snapshot ids); requires --churn, pair with --retries");
  flags.AddBool("help", &help, "print usage");
  if (!flags.Parse(&argc, argv)) return 1;
  if (help) {
    std::fputs(flags.HelpString().c_str(), stdout);
    return 0;
  }
  if (connections < 1 || batch < 1 || d < 2) {
    std::fprintf(stderr, "need --connections >= 1, --batch >= 1, --d >= 2\n");
    return 1;
  }
  if (zipf && (profiles < 1 || zipf_s <= 0.0 || quantum <= 0.0 ||
               quantum >= 1.0)) {
    std::fprintf(stderr,
                 "need --profiles >= 1, --zipf_s > 0, 0 < --quantum < 1\n");
    return 1;
  }
  if (churn && (churn_rows < 1 || churn_interval < 0.0)) {
    std::fprintf(stderr, "need --churn_rows >= 1, --churn_interval >= 0\n");
    return 1;
  }
  if (expect_durable && !churn) {
    std::fprintf(stderr, "--expect_durable requires --churn\n");
    return 1;
  }

  // The profile set is shared: the zipf skew is over ONE set of boxes,
  // so different connections hammer the same popular clienteles
  // (cross-connection reuse is the whole point). Per-connection rngs
  // only drive the sampling and jitter.
  ZipfMix mix;
  if (zipf) {
    mix = BuildZipfMix(static_cast<size_t>(d - 1), sigma, zipf_s, profiles,
                       quantum, static_cast<uint64_t>(seed));
  }

  Resilience resilience;
  resilience.attempts = std::max(retries, 1);
  resilience.deadline_seconds = deadline_ms > 0.0 ? deadline_ms / 1000.0 : 0.0;

  std::vector<WorkerReport> reports(static_cast<size_t>(connections));
  std::vector<std::thread> workers;
  workers.reserve(reports.size());
  Timer wall;
  for (size_t c = 0; c < reports.size(); ++c) {
    workers.emplace_back(RunConnection, host, port,
                         static_cast<size_t>(d - 1), k, sigma, batch, budget,
                         duration, static_cast<uint64_t>(seed) + 31 * c,
                         zipf ? &mix : nullptr, resilience, expect_durable,
                         &reports[c]);
  }
  ChurnReport churn_report;
  std::thread churn_writer;
  if (churn) {
    churn_writer = std::thread(RunChurnWriter, host, port,
                               static_cast<size_t>(d), k, sigma,
                               churn_interval, churn_rows, duration,
                               static_cast<uint64_t>(seed) + 977, resilience,
                               expect_durable, &churn_report);
  }
  for (std::thread& worker : workers) worker.join();
  if (churn_writer.joinable()) churn_writer.join();
  const double elapsed = wall.Seconds();

  WorkerReport total;
  uint64_t dead_workers = 0;
  for (const WorkerReport& report : reports) {
    total.attempted += report.attempted;
    total.completed += report.completed;
    total.rejected += report.rejected;
    total.budget_exceeded += report.budget_exceeded;
    total.deadline_exceeded += report.deadline_exceeded;
    total.rejected_draining += report.rejected_draining;
    total.other_statuses += report.other_statuses;
    total.protocol_errors += report.protocol_errors;
    total.transport_errors += report.transport_errors;
    total.timeout_errors += report.timeout_errors;
    total.retries += report.retries;
    total.reconnects += report.reconnects;
    if (report.died) ++dead_workers;
    total.rpc_millis.insert(total.rpc_millis.end(),
                            report.rpc_millis.begin(),
                            report.rpc_millis.end());
    total.cache_hits += report.cache_hits;
    total.cache_misses += report.cache_misses;
    total.cache_bypass += report.cache_bypass;
    total.cache_tasks_saved += report.cache_tasks_saved;
    total.seq_regressions += report.seq_regressions;
    total.last_snapshot_seq =
        std::max(total.last_snapshot_seq, report.last_snapshot_seq);
    total.hit_solve_millis.insert(total.hit_solve_millis.end(),
                                  report.hit_solve_millis.begin(),
                                  report.hit_solve_millis.end());
    total.miss_solve_millis.insert(total.miss_solve_millis.end(),
                                   report.miss_solve_millis.begin(),
                                   report.miss_solve_millis.end());
    if (total.first_error.empty()) total.first_error = report.first_error;
  }
  total.protocol_errors += churn_report.protocol_errors;
  total.retries += churn_report.retries;
  total.reconnects += churn_report.reconnects;
  if (churn_report.died) ++dead_workers;
  if (total.first_error.empty()) total.first_error = churn_report.first_error;
  std::sort(total.rpc_millis.begin(), total.rpc_millis.end());
  std::sort(total.hit_solve_millis.begin(), total.hit_solve_millis.end());
  std::sort(total.miss_solve_millis.begin(), total.miss_solve_millis.end());
  const double qps =
      elapsed > 0.0 ? static_cast<double>(total.completed) / elapsed : 0.0;

  std::string json;
  char line[256];
  std::snprintf(line, sizeof(line), "{\n  \"duration_seconds\": %.3f,\n",
                elapsed);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"connections\": %d,\n  \"batch\": %d,\n", connections,
                batch);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"completed_queries\": %llu,\n  \"rejected_queries\": "
                "%llu,\n",
                static_cast<unsigned long long>(total.completed),
                static_cast<unsigned long long>(total.rejected));
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"budget_exceeded_queries\": %llu,\n  "
                "\"other_status_queries\": %llu,\n",
                static_cast<unsigned long long>(total.budget_exceeded),
                static_cast<unsigned long long>(total.other_statuses));
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"attempted_queries\": %llu,\n  \"deadline_exceeded\": "
                "%llu,\n  \"rejected_draining\": %llu,\n",
                static_cast<unsigned long long>(total.attempted),
                static_cast<unsigned long long>(total.deadline_exceeded),
                static_cast<unsigned long long>(total.rejected_draining));
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"retries\": %llu,\n  \"reconnects\": %llu,\n  "
                "\"dead_workers\": %llu,\n",
                static_cast<unsigned long long>(total.retries),
                static_cast<unsigned long long>(total.reconnects),
                static_cast<unsigned long long>(dead_workers));
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"protocol_errors\": %llu,\n  \"transport_errors\": "
                "%llu,\n  \"timeout_errors\": %llu,\n  \"rpcs\": %zu,\n",
                static_cast<unsigned long long>(total.protocol_errors),
                static_cast<unsigned long long>(total.transport_errors),
                static_cast<unsigned long long>(total.timeout_errors),
                total.rpc_millis.size());
  json += line;
  std::snprintf(line, sizeof(line), "  \"queries_per_second\": %.2f,\n",
                qps);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"latency_ms\": {\"p50\": %.3f, \"p90\": %.3f, \"p99\": "
                "%.3f, \"max\": %.3f},\n",
                Percentile(total.rpc_millis, 0.50),
                Percentile(total.rpc_millis, 0.90),
                Percentile(total.rpc_millis, 0.99),
                total.rpc_millis.empty() ? 0.0 : total.rpc_millis.back());
  json += line;
  const uint64_t classified = total.cache_hits + total.cache_misses;
  const double hit_rate =
      classified > 0 ? static_cast<double>(total.cache_hits) /
                           static_cast<double>(classified)
                     : 0.0;
  std::snprintf(line, sizeof(line),
                "  \"zipf\": %s,\n  \"profiles\": %d,\n",
                zipf ? "true" : "false", zipf ? profiles : 0);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"cache\": {\"hits\": %llu, "
                "\"misses\": %llu, \"bypass\": %llu,\n",
                static_cast<unsigned long long>(total.cache_hits),
                static_cast<unsigned long long>(total.cache_misses),
                static_cast<unsigned long long>(total.cache_bypass));
  json += line;
  std::snprintf(line, sizeof(line),
                "    \"hit_rate\": %.4f, \"tasks_saved\": %llu,\n", hit_rate,
                static_cast<unsigned long long>(total.cache_tasks_saved));
  json += line;
  std::snprintf(line, sizeof(line),
                "    \"hit_solve_ms\": {\"p50\": %.3f, \"p99\": %.3f},\n",
                Percentile(total.hit_solve_millis, 0.50),
                Percentile(total.hit_solve_millis, 0.99));
  json += line;
  std::snprintf(line, sizeof(line),
                "    \"miss_solve_ms\": {\"p50\": %.3f, \"p99\": %.3f}},\n",
                Percentile(total.miss_solve_millis, 0.50),
                Percentile(total.miss_solve_millis, 0.99));
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"churn\": {\"enabled\": %s, \"publishes\": %llu, "
                "\"staged_rows\": %llu, \"staged_deletes\": %llu,\n",
                churn ? "true" : "false",
                static_cast<unsigned long long>(churn_report.publishes),
                static_cast<unsigned long long>(churn_report.staged_rows),
                static_cast<unsigned long long>(churn_report.staged_deletes));
  json += line;
  std::snprintf(
      line, sizeof(line),
      "    \"publish_failures\": %llu, \"ryw_violations\": %llu,\n",
      static_cast<unsigned long long>(churn_report.publish_failures),
      static_cast<unsigned long long>(churn_report.ryw_violations));
  json += line;
  std::snprintf(
      line, sizeof(line),
      "    \"publishes_deduped\": %llu, \"duplicate_publishes\": %llu,\n",
      static_cast<unsigned long long>(churn_report.publishes_deduped),
      static_cast<unsigned long long>(churn_report.duplicate_publishes));
  json += line;
  std::snprintf(
      line, sizeof(line),
      "    \"seq_regressions\": %llu, \"last_snapshot_seq\": %llu},\n",
      static_cast<unsigned long long>(total.seq_regressions),
      static_cast<unsigned long long>(std::max(
          churn_report.last_snapshot_seq, total.last_snapshot_seq)));
  json += line;
  std::snprintf(
      line, sizeof(line),
      "  \"durable\": {\"enabled\": %s, \"lost_publishes\": %llu, "
      "\"snapshot_id_mismatches\": %llu,\n",
      expect_durable ? "true" : "false",
      static_cast<unsigned long long>(churn_report.lost_publishes),
      static_cast<unsigned long long>(churn_report.snapshot_id_mismatches));
  json += line;
  std::snprintf(
      line, sizeof(line),
      "    \"last_snapshot_id\": \"%016llx\", \"max_acked_seq\": %llu,\n",
      static_cast<unsigned long long>(churn_report.last_snapshot_id),
      static_cast<unsigned long long>(churn_report.last_snapshot_seq));
  json += line;
  std::snprintf(
      line, sizeof(line),
      "    \"final_snapshot_id\": \"%016llx\", \"final_snapshot_seq\": "
      "%llu, \"final_info_ok\": %s,\n",
      static_cast<unsigned long long>(churn_report.final_snapshot_id),
      static_cast<unsigned long long>(churn_report.final_snapshot_seq),
      churn_report.final_info_ok ? "true" : "false");
  json += line;
  std::string safe_info = churn_report.final_info_message.substr(0, 160);
  for (char& c : safe_info) {
    if (c == '"' || c == '\\') c = '\'';
  }
  std::snprintf(line, sizeof(line), "    \"server_info\": \"%s\"},\n",
                safe_info.c_str());
  json += line;
  std::string safe_error = total.first_error.substr(0, 120);
  for (char& c : safe_error) {
    if (c == '"' || c == '\\') c = '\'';
  }
  std::snprintf(line, sizeof(line), "  \"first_error\": \"%s\"\n}\n",
                safe_error.c_str());
  json += line;

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("toprr_loadgen: %llu queries ok (%.1f q/s), %llu rejected, "
                "%llu over budget, %llu protocol errors",
                static_cast<unsigned long long>(total.completed), qps,
                static_cast<unsigned long long>(total.rejected),
                static_cast<unsigned long long>(total.budget_exceeded),
                static_cast<unsigned long long>(total.protocol_errors));
    if (churn) {
      std::printf(", %llu publishes (%llu failed, %llu ryw violations)",
                  static_cast<unsigned long long>(churn_report.publishes),
                  static_cast<unsigned long long>(
                      churn_report.publish_failures),
                  static_cast<unsigned long long>(
                      churn_report.ryw_violations));
    }
    std::printf(" -> %s\n", out_path.c_str());
  }
  const bool churn_clean =
      !churn || (churn_report.publish_failures == 0 &&
                 churn_report.ryw_violations == 0 &&
                 churn_report.duplicate_publishes == 0 &&
                 total.seq_regressions == 0);
  // Durable verification failures are always fatal: losing an acked
  // publish (or serving a different snapshot id for a seen seq) is the
  // exact crime the WAL exists to prevent.
  const bool durable_clean =
      !expect_durable || (churn_report.lost_publishes == 0 &&
                          churn_report.snapshot_id_mismatches == 0 &&
                          churn_report.final_info_ok);
  if (resilience.attempts > 1) {
    // Chaos semantics: transient errors are the point of the run -- the
    // retry layer is expected to absorb them. Only correctness failures
    // (ordering, duplicates) and workers that gave up are fatal; the
    // completion floor is the gate script's call, not an exit code.
    return churn_clean && durable_clean && dead_workers == 0 ? 0 : 1;
  }
  return total.protocol_errors == 0 && total.transport_errors == 0 &&
                 total.timeout_errors == 0 && dead_workers == 0 &&
                 churn_clean && durable_clean
             ? 0
             : 1;
}
