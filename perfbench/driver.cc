// perfbench_driver: the serving benchmark's measuring program.
//
// One invocation runs one workload against the shipped toprr_serve
// (perfbench/run.py passes every flag):
//
//   perfbench_driver --workload churn_durable --seed 7 --seconds 40
//       --trace 0 --server .bench_build/toprr/toprr_serve
//       --work_dir .bench_work
//
// It writes the fixed catalog (IND, n = 50 000, d = 4) as a CSV printed
// with %.17g (strtod round-trips every value), draws the query traffic
// from --seed, spawns toprr_serve several times to time its set-up,
// drives the last one over loopback with two closed-loop query
// connections (one batch outstanding each) plus, in churn_durable, an
// open-loop writer, checks every answer, and prints one JSON line. With
// --trace 1 it also records spans around each layer's public functions
// in an in-process replay of the same inputs and prints the per-layer
// metrics instead of the end-to-end ones. perfbench/README.md describes
// the workloads and every metric.
#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/partition.h"
#include "core/region_cache.h"
#include "core/result_region.h"
#include "core/toprr.h"
#include "data/csv.h"
#include "data/generator.h"
#include "data/recovery.h"
#include "data/snapshot.h"
#include "data/wal.h"
#include "geom/halfspace_intersection.h"
#include "pref/pref_space.h"
#include "pref/region.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "topk/rskyband.h"

namespace {

using namespace toprr;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---- Fixed problem definition (the scaled paper defaults of
// bench/bench_common.h). ----
constexpr size_t kRows = 50000;
constexpr size_t kDim = 4;
constexpr int kK = 10;
// The catalog, the zipf clientele profiles, uniform_solve's box set and
// the writer's deltas are part of the workload definition, like n and d:
// --seed draws the query traffic over them (the order of the uniform
// boxes, the zipf draws and their jitter). With the profiles drawn per
// seed, which profile lands on Zipf rank 1 (a quarter of all queries)
// swung zipf_repeat's throughput by 3x between seeds; with the writer's
// rows drawn per seed, how many of its deletes hit the k-skyband
// (forcing a rebuild) moved churn_durable's publish p50 by 4x.
constexpr uint64_t kCatalogSeed = 2019;
constexpr int kQueryConnections = 2;
constexpr int kSetupSpawns = 9;
constexpr double kCacheQuantum = 1.0 / 256.0;
constexpr size_t kCacheBudgetBytes = size_t{64} << 20;
// Writer: 16-row deltas, 8 inserts plus 8 deletes of its own earlier
// rows. About 2.5% of fresh rows enter the k-skyband, and a delta that
// deletes a member makes the publish rebuild it (~50 ms): with 16
// deletes a third of all publishes rebuilt, so the publish median sat
// in the upper tail of the fast ones and moved 1.5-6.5 ms between runs.
constexpr int kDeltaInserts = 8;
// 50/s, the rate first planned, is past what a 4-core host sustains
// with fsync always: with 16 deletes per delta the writer fell 1.4 s
// behind within a 25 s run and reads collapsed to ~110 q/s. At 20/s a
// rebuild (~50 ms, about one publish in six) still ran into the next
// publish's due time, so on a slow stretch of the host the delays
// cascaded and the publish median rose by half (1.35 -> 2.1 ms).
constexpr double kChurnPublishesPerSecond = 10.0;
// The served catalog's WAL fsync policy. With always, the publish median
// followed the host's other tenants: 1.3-1.5 ms at under 1% steal time,
// 2.3-3.5 ms at 3-7%, and fsync on the shared virtual disk went from a
// 0.1 ms median to a 3 ms p90 between samples taken seconds apart.
// Batched (group commit per 1 MiB, so within a run only checkpoints and
// log rotations sync) read 1.0-1.1 ms, and 1.9 ms at 6.6% steal. An ack
// then does not mean the delta is on disk;
// bench/bench_wal_append.cc measures what always costs.
constexpr FsyncPolicy kChurnFsync = FsyncPolicy::kBatched;
constexpr int kPrepopulatePublishes = 300;
constexpr int kCheckpointEvery = 64;
// Read workloads end with this many closed-loop in-memory publishes.
constexpr int kProbePublishes = 600;
// The traced replay covers this many leading batches of the query list.
constexpr size_t kReplayBatches = 400;
// query_qps and query_p99_ms are medians over this many equal spans of
// the timed phase, so a burst of load from a neighbour on a shared host
// moves one span instead of the run's figure.
constexpr int kWindows = 5;

double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Workloads.

enum class Mix { kUniform, kZipf };

struct WorkloadSpec {
  Mix mix = Mix::kUniform;
  double sigma = 0.02;
  int batch = 1;
  // Option placement needs oR's vertices, but served queries ask for
  // halfspaces only: with vertices, toprr_serve died (SIGSEGV in vertex
  // enumeration) in every uniform_solve run tried; README.md has the
  // reproducer. The traced run replays vertex enumeration instead.
  bool replay_geometry = false;
  bool churn = false;
  // Queries per second of --seconds: the fixed work of one run, sized so
  // the timed phase lasts about 0.7 x --seconds on a 4-core x86 host,
  // leaving the rest for set-up and the checks.
  double queries_per_second = 0.0;
};

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name == "uniform_solve") {
    spec->mix = Mix::kUniform;
    spec->sigma = 0.02;
    spec->batch = 1;
    spec->replay_geometry = true;
    spec->queries_per_second = 220.0;
    return true;
  }
  if (name == "zipf_repeat" || name == "churn_durable") {
    spec->mix = Mix::kZipf;
    spec->sigma = 0.01;
    spec->batch = 8;
    spec->churn = name == "churn_durable";
    spec->queries_per_second = spec->churn ? 1100.0 : 3000.0;
    return true;
  }
  return false;
}

// The zipf mix: clientele profile boxes with corners at grid-cell
// centres, so a jitter of under half a cell never changes the box the
// region cache canonicalizes to.
struct ZipfMix {
  std::vector<PrefBox> profiles;
  std::vector<double> cdf;
};

ZipfMix BuildZipfMix(size_t dim, double sigma, double s, int profiles,
                     uint64_t seed) {
  ZipfMix mix;
  const double cells = 1.0 / kCacheQuantum;
  const int64_t width =
      std::max<int64_t>(1, static_cast<int64_t>(std::lround(sigma * cells)));
  const int64_t max_lo_cell = static_cast<int64_t>(cells) - width - 1;
  Rng rng(seed);
  while (mix.profiles.size() < static_cast<size_t>(profiles)) {
    PrefBox box{Vec(dim), Vec(dim)};
    PrefBox canonical{Vec(dim), Vec(dim)};
    for (size_t j = 0; j < dim; ++j) {
      const int64_t cell = rng.UniformInt(1, max_lo_cell);
      box.lo[j] = (static_cast<double>(cell) + 0.5) * kCacheQuantum;
      box.hi[j] = (static_cast<double>(cell + width) + 0.5) * kCacheQuantum;
      canonical.lo[j] = static_cast<double>(cell) * kCacheQuantum;
      canonical.hi[j] = static_cast<double>(cell + width + 1) * kCacheQuantum;
    }
    if (canonical.InsideSimplex()) mix.profiles.push_back(std::move(box));
  }
  double total = 0.0;
  for (size_t i = 0; i < mix.profiles.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    mix.cdf.push_back(total);
  }
  for (double& c : mix.cdf) c /= total;
  return mix;
}

// The jitter moves each axis by one of kJitterSteps offsets spread over
// +-0.4 cell, so a profile has at most kJitterSteps^(d-1) distinct boxes.
// Continuous jitter made every served query distinct, and re-solving
// them all with the cache off took twice as long as the timed phase.
constexpr int kJitterSteps = 3;

PrefBox SampleZipfBox(const ZipfMix& mix, Rng& rng) {
  const double u = rng.Uniform();
  const size_t pick =
      std::lower_bound(mix.cdf.begin(), mix.cdf.end(), u) - mix.cdf.begin();
  PrefBox box = mix.profiles[std::min(pick, mix.profiles.size() - 1)];
  for (size_t j = 0; j < box.dim(); ++j) {
    const double step =
        static_cast<double>(rng.UniformInt(0, kJitterSteps - 1)) /
        (kJitterSteps - 1);
    const double delta = (step - 0.5) * 0.8 * kCacheQuantum;
    box.lo[j] += delta;
    box.hi[j] += delta;
  }
  return box;
}

double RadicalInverse(uint64_t index, uint64_t base) {
  double inverse = 0.0, scale = 1.0 / static_cast<double>(base);
  for (; index > 0; index /= base, scale /= static_cast<double>(base)) {
    inverse += static_cast<double>(index % base) * scale;
  }
  return inverse;
}

// uniform_solve's boxes: the distribution of RandomPrefBox (lower corner
// uniform over the placements that keep the box inside the simplex), but
// placed by a Halton sequence under a random shift. Query cost is
// heavy-tailed in where a box sits: with i.i.d. corners drawn per seed
// the server's CPU per query moved 6.1-7.8 ms across five seeds, and
// with a per-seed shift of this set still 5.9-6.6 ms (p99 by 27%), so
// the set is fixed like the catalog and the seed only orders it.
std::vector<PrefBox> StratifiedBoxes(size_t count, double side, Rng& rng) {
  constexpr uint64_t kBases[] = {2, 3, 5};
  static_assert(sizeof(kBases) / sizeof(kBases[0]) == kDim - 1, "one base per axis");
  double shift[kDim - 1];
  for (double& s : shift) s = rng.Uniform();
  std::vector<PrefBox> boxes;
  for (uint64_t index = 1; boxes.size() < count; ++index) {
    PrefBox box{Vec(kDim - 1), Vec(kDim - 1)};
    double hi_sum = 0.0;
    for (size_t j = 0; j < kDim - 1; ++j) {
      const double u = std::fmod(RadicalInverse(index, kBases[j]) + shift[j], 1.0);
      box.lo[j] = u * (1.0 - side);
      box.hi[j] = box.lo[j] + side;
      hi_sum += box.hi[j];
    }
    if (hi_sum <= 1.0) boxes.push_back(std::move(box));
  }
  return boxes;
}

ToprrQuery MakeQuery(const PrefBox& box) {
  ToprrOptions options;
  options.build_geometry = false;
  options.num_threads = 1;
  return ToprrQuery::FromBox(kK, box, options);
}

std::vector<std::vector<ToprrQuery>> Batches(const std::vector<PrefBox>& boxes,
                                             int batch) {
  std::vector<std::vector<ToprrQuery>> batches;
  for (size_t i = 0; i < boxes.size(); i += static_cast<size_t>(batch)) {
    std::vector<ToprrQuery> one;
    for (size_t j = i; j < std::min(boxes.size(), i + batch); ++j) {
      one.push_back(MakeQuery(boxes[j]));
    }
    batches.push_back(std::move(one));
  }
  return batches;
}

// One writer delta: rows to insert and physical ids to delete.
struct Delta {
  std::vector<Vec> inserts;
  std::vector<uint64_t> deletes;
};

// Generates deltas that keep n flat: each inserts kDeltaInserts fresh
// rows and, once 2 * kDeltaInserts of the writer's own rows are live,
// deletes the oldest kDeltaInserts of them. Row ids follow from the
// single-writer rule that a publish's inserts land at
// [physical rows, physical rows + inserts).
class DeltaSource {
 public:
  DeltaSource(uint64_t seed, uint64_t physical_rows)
      : rng_(seed), physical_rows_(physical_rows) {}

  Delta Next() {
    Delta delta;
    for (int i = 0; i < kDeltaInserts; ++i) {
      Vec row(kDim);
      for (size_t j = 0; j < kDim; ++j) row[j] = rng_.Uniform();
      delta.inserts.push_back(std::move(row));
    }
    if (own_.size() >= static_cast<size_t>(2 * kDeltaInserts)) {
      for (int i = 0; i < kDeltaInserts; ++i) {
        delta.deletes.push_back(own_.front());
        own_.pop_front();
      }
    }
    for (int i = 0; i < kDeltaInserts; ++i) own_.push_back(physical_rows_++);
    return delta;
  }

 private:
  Rng rng_;
  uint64_t physical_rows_;
  std::deque<uint64_t> own_;
};

SnapshotPtr ApplyDelta(MutableCatalog* catalog, const Delta& delta) {
  for (const Vec& row : delta.inserts) catalog->StageInsert(row);
  for (uint64_t id : delta.deletes) {
    CHECK(catalog->StageDelete(static_cast<int>(id)));
  }
  return catalog->Publish();
}

// ---------------------------------------------------------------------
// Spans, kept in memory and written when the run ends.

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t qid = 0;     // batch (query) or publish index
  double duration() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}
  int64_t Begin(const std::string& name, int64_t parent, int64_t qid) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.qid = qid;
    span.id = static_cast<int64_t>(spans_.size()) + 1;
    span.start_ms = MsSince(epoch_, Clock::now());
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  void End(int64_t id) {
    spans_[static_cast<size_t>(id - 1)].end_ms = MsSince(epoch_, Clock::now());
  }
  // Appends a span measured elsewhere (the client threads' rpc spans).
  int64_t Add(const std::string& name, double start_ms, double end_ms,
              int64_t parent, int64_t qid) {
    const int64_t id = Begin(name, parent, qid);
    spans_.back().start_ms = start_ms;
    spans_.back().end_ms = end_ms;
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }
  Clock::time_point epoch() const { return epoch_; }

  // Self time per span name: duration minus the children's durations.
  // Replayed children run after their logical parent (the rpc happened
  // on the server), so durations, not interval overlap, are subtracted.
  std::map<std::string, double> SelfTimes() const {
    std::vector<double> child_ms(spans_.size() + 1, 0.0);
    for (const Span& s : spans_) {
      if (s.parent > 0) child_ms[static_cast<size_t>(s.parent)] += s.duration();
    }
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      self[s.name] += s.duration() - child_ms[static_cast<size_t>(s.id)];
    }
    return self;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                    "\"qid\":%lld,\"start_ms\":%.4f,\"end_ms\":%.4f}%s\n",
                    s.name.c_str(), static_cast<long long>(s.id),
                    static_cast<long long>(s.parent),
                    static_cast<long long>(s.qid), s.start_ms, s.end_ms,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// The server process, observed from outside through /proc and wait4.

struct ProcSample {
  double cpu_ms = 0.0;
  uint64_t voluntary_csw = 0;
  uint64_t involuntary_csw = 0;
  double peak_rss_mb = 0.0;
  // Time the hypervisor ran others on this host's CPUs (all of them).
  double host_steal_ms = 0.0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

uint64_t StatusField(const std::string& status, const std::string& key) {
  const size_t at = status.find(key + ":");
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + key.size() + 1, nullptr, 10);
}

ProcSample SampleProc(pid_t pid) {
  ProcSample sample;
  const std::string base = "/proc/" + std::to_string(pid);
  const std::string stat = ReadFile(base + "/stat");
  const size_t paren = stat.rfind(')');
  if (paren != std::string::npos) {
    std::istringstream fields(stat.substr(paren + 2));
    std::string field;
    // Fields after the command: state(3) ... utime(14) stime(15).
    double ticks = 0.0;
    for (int index = 3; index <= 15 && (fields >> field); ++index) {
      if (index == 14 || index == 15) ticks += std::strtod(field.c_str(), nullptr);
    }
    sample.cpu_ms = ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  sample.peak_rss_mb =
      static_cast<double>(StatusField(ReadFile(base + "/status"), "VmHWM")) /
      1024.0;
  // Context switches are per thread; sum the live ones.
  if (DIR* dir = opendir((base + "/task").c_str())) {
    while (dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      const std::string status =
          ReadFile(base + "/task/" + entry->d_name + "/status");
      sample.voluntary_csw += StatusField(status, "voluntary_ctxt_switches");
      sample.involuntary_csw +=
          StatusField(status, "nonvoluntary_ctxt_switches");
    }
    closedir(dir);
  }
  // /proc/stat: "cpu user nice system idle iowait irq softirq steal ...".
  std::istringstream cpu(ReadFile("/proc/stat"));
  std::string label;
  double ticks[8] = {};
  cpu >> label;
  for (double& t : ticks) cpu >> t;
  sample.host_steal_ms =
      ticks[7] * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return sample;
}

double SelfCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec * 1e3 + usage.ru_utime.tv_usec / 1e3 +
         usage.ru_stime.tv_sec * 1e3 + usage.ru_stime.tv_usec / 1e3;
}

// Pulls "key=<number>" out of one of toprr_serve's status lines.
double LineField(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + key.size() + 2, nullptr);
}

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  // Spawns toprr_serve and blocks until it prints its listening line.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path,
             std::string* error) {
    int out_pipe[2];
    if (pipe(out_pipe) != 0) {
      *error = "pipe failed";
      return false;
    }
    pid_ = fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      dup2(out_pipe[1], STDOUT_FILENO);
      const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                0644);
      if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
      close(out_pipe[0]);
      close(out_pipe[1]);
      std::vector<char*> args;
      for (const std::string& arg : argv) {
        args.push_back(const_cast<char*>(arg.c_str()));
      }
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
    close(out_pipe[1]);
    out_ = fdopen(out_pipe[0], "r");
    char line[4096];
    while (std::fgets(line, sizeof(line), out_) != nullptr) {
      const std::string text(line);
      if (text.find("durable catalog") != std::string::npos) {
        recovery_line_ = text;
      }
      const size_t at = text.find("listening on ");
      if (at != std::string::npos) {
        const size_t colon = text.find(':', at + 13);
        port_ = std::atoi(text.c_str() + colon + 1);
        return port_ > 0;
      }
    }
    *error = "toprr_serve exited before listening (see " + log_path + ")";
    Stop();
    return false;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  const std::string& recovery_line() const { return recovery_line_; }
  const std::string& shutdown_line() const { return shutdown_line_; }
  const rusage& usage() const { return usage_; }
  // The wait4 status of the stopped server: a clean SIGTERM shutdown
  // exits 0, anything else means it died on its own.
  int status() const { return status_; }

  // SIGTERM, drain stdout (the shutdown stats line), reap with wait4.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    if (out_ != nullptr) {
      char line[8192];
      while (std::fgets(line, sizeof(line), out_) != nullptr) {
        if (std::strstr(line, "shut down") != nullptr) shutdown_line_ = line;
      }
      fclose(out_);
      out_ = nullptr;
    }
    wait4(pid_, &status_, 0, &usage_);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  FILE* out_ = nullptr;
  std::string recovery_line_;
  std::string shutdown_line_;
  rusage usage_{};
  int status_ = 0;
};

// ---------------------------------------------------------------------
// Bit-level result comparison.

bool SameBits(const Vec& a, const Vec& b) {
  return a.dim() == b.dim() &&
         std::memcmp(a.data(), b.data(), a.dim() * sizeof(double)) == 0;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameAnswer(const serve::ServeResponse& served, const ToprrResult& ref) {
  if (served.status != serve::ServeStatus::kOk || ref.timed_out) return false;
  if (served.degenerate != ref.degenerate ||
      served.impact_halfspaces.size() != ref.impact_halfspaces.size()) {
    return false;
  }
  for (size_t i = 0; i < ref.impact_halfspaces.size(); ++i) {
    const Halfspace& a = served.impact_halfspaces[i];
    const Halfspace& b = ref.impact_halfspaces[i];
    if (!SameBits(a.normal, b.normal) || !SameBits(a.offset, b.offset)) {
      return false;
    }
  }
  return true;
}

// How far the region reaches from the option-space top corner along
// `direction` (all components < 0). oR is convex and contains the top
// corner whenever it is non-degenerate, so these reaches over a fan of
// directions pin the polytope down.
double Reach(const std::vector<Halfspace>& halfspaces, const Vec& direction) {
  double reach = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < kDim; ++j) reach = std::min(reach, -1.0 / direction[j]);
  for (const Halfspace& h : halfspaces) {
    double at_corner = 0.0, along = 0.0;
    for (size_t j = 0; j < kDim; ++j) {
      at_corner += h.normal[j];
      along += h.normal[j] * direction[j];
    }
    if (along > 0.0) reach = std::min(reach, (h.offset - at_corner) / along);
  }
  return reach;
}

// The semantic check behind the bit-level one: the served and the
// reference region have the same degeneracy and reach equally far (to
// 1e-9) along 64 fixed directions from the top corner. Returns the
// largest reach difference (infinity for a status or degeneracy
// mismatch).
double RegionDistance(const serve::ServeResponse& served,
                      const ToprrResult& ref) {
  if (served.status != serve::ServeStatus::kOk || ref.timed_out ||
      served.degenerate != ref.degenerate) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  if (ref.degenerate) return worst;
  Rng rng(0x5eed);
  for (int ray = 0; ray < 64; ++ray) {
    Vec direction(kDim);
    for (size_t j = 0; j < kDim; ++j) direction[j] = -(0.05 + rng.Uniform());
    const double a = Reach(served.impact_halfspaces, direction);
    const double b = Reach(ref.impact_halfspaces, direction);
    worst = std::max(worst, std::fabs(a - b) / std::max(1.0, std::fabs(b)));
  }
  return worst;
}

std::string BoxKey(const PrefBox& box) {
  std::string key(reinterpret_cast<const char*>(box.lo.data()),
                  box.dim() * sizeof(double));
  key.append(reinterpret_cast<const char*>(box.hi.data()),
             box.dim() * sizeof(double));
  return key;
}

// ---------------------------------------------------------------------
// Load generation.

struct BatchRecord {
  int connection = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool transport_ok = false;
  std::vector<serve::ServeResponse> responses;
  double rpc_ms() const { return end_ms - start_ms; }
};

struct PublishRecord {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double acked_ms = 0.0;
  bool ok = false;
  uint64_t seq = 0;
  uint64_t id = 0;
  bool ryw_ok = false;
  double ryw_ms = 0.0;
};

struct LoadResult {
  std::vector<BatchRecord> batches;
  std::vector<PublishRecord> publishes;
  std::vector<Delta> acked_deltas;  // in ack order
  double start_ms = 0.0;  // since the epoch
  double wall_ms = 0.0;
  uint64_t seq_regressions = 0;
  uint64_t transport_failures = 0;
  bool truncated = false;  // the time cap stopped the query list early
};

class LoadRunner {
 public:
  LoadRunner(int port, Clock::time_point epoch) : port_(port), epoch_(epoch) {}

  // Closed loop over `batches` on kQueryConnections connections; with a
  // writer, an open-loop publisher at `publish_rate` runs alongside.
  // `on_start` runs once every reader is connected and `on_end` once all
  // are done but still connected, so samples of the server's threads
  // taken there cover exactly the timed phase.
  LoadResult Run(const std::vector<std::vector<ToprrQuery>>& batches,
                 double time_cap_seconds, DeltaSource* writer,
                 double publish_rate, const ToprrQuery& ryw_query,
                 const std::function<void()>& on_start,
                 const std::function<void()>& on_end) {
    LoadResult result;
    result.batches.resize(batches.size());
    std::atomic<size_t> next{0};
    std::atomic<bool> readers_done{false};
    std::atomic<uint64_t> regressions{0};
    std::atomic<uint64_t> transport{0};
    std::atomic<bool> truncated{false};
    std::mutex mu;
    std::condition_variable cv;
    int ready = 0, finished = 0;
    bool go = false, release = false;
    Clock::time_point cap;
    std::vector<std::thread> readers;
    for (int c = 0; c < kQueryConnections; ++c) {
      readers.emplace_back([&, c]() {
        serve::ToprrClient client;
        const bool connected = client.Connect("127.0.0.1", port_);
        if (!connected) ++transport;
        {
          std::unique_lock<std::mutex> lock(mu);
          ++ready;
          cv.notify_all();
          cv.wait(lock, [&] { return go; });
        }
        uint64_t last_seq = 0;
        while (connected) {
          const size_t b = next.fetch_add(1);
          if (b >= batches.size()) break;
          if (Clock::now() > cap) {
            truncated = true;
            break;
          }
          BatchRecord& record = result.batches[b];
          record.connection = c;
          record.start_ms = MsSince(epoch_, Clock::now());
          auto responses = client.QueryBatch(batches[b]);
          record.end_ms = MsSince(epoch_, Clock::now());
          if (!responses.has_value()) {
            if (!client.Connect("127.0.0.1", port_)) break;
            continue;
          }
          record.transport_ok = true;
          for (const serve::ServeResponse& r : *responses) {
            if (r.snapshot_seq < last_seq) ++regressions;
            last_seq = std::max(last_seq, r.snapshot_seq);
          }
          record.responses = std::move(*responses);
        }
        std::unique_lock<std::mutex> lock(mu);
        ++finished;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      });
    }
    Clock::time_point start;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return ready == kQueryConnections; });
      on_start();
      start = Clock::now();
      cap = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(time_cap_seconds));
      go = true;
      cv.notify_all();
    }
    std::thread writer_thread;
    if (writer != nullptr) {
      writer_thread = std::thread([&]() {
        RunWriter(writer, publish_rate, &readers_done, ryw_query, &result);
      });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return finished == kQueryConnections; });
      result.start_ms = MsSince(epoch_, start);
      result.wall_ms = MsSince(start, Clock::now());
      readers_done = true;
    }
    if (writer_thread.joinable()) writer_thread.join();
    on_end();
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
      cv.notify_all();
    }
    for (std::thread& t : readers) t.join();
    result.seq_regressions += regressions.load();
    result.transport_failures += transport.load();
    result.truncated = truncated.load();
    // Batches never sent (time cap) are dropped from the record; the
    // rest are a prefix of the list, since batches go out in order.
    result.batches.erase(
        std::remove_if(result.batches.begin(), result.batches.end(),
                       [](const BatchRecord& r) { return r.connection < 0; }),
        result.batches.end());
    return result;
  }

  // Closed-loop publishes of `count` deltas on an otherwise idle server.
  LoadResult Probe(DeltaSource* writer, int count,
                   const ToprrQuery& ryw_query) {
    LoadResult result;
    std::atomic<bool> done{false};
    RunWriter(writer, 0.0, &done, ryw_query, &result, count);
    return result;
  }

 private:
  // Publishes deltas until `stop` (open loop at `rate` per second, each
  // publish timed from when it was due) or, with rate 0, `count`
  // publishes back to back. After every ack a read on the same
  // connection must see at least the acked seq (read-your-writes).
  void RunWriter(DeltaSource* writer, double rate, const std::atomic<bool>* stop,
                 const ToprrQuery& ryw_query, LoadResult* result,
                 int count = 0) {
    serve::ToprrClient client;
    if (!client.Connect("127.0.0.1", port_)) {
      ++result->transport_failures;
      return;
    }
    uint64_t physical = client.server().physical_rows;
    uint64_t last_seq = client.server().snapshot_seq;
    const Clock::time_point start = Clock::now();
    for (int i = 0;; ++i) {
      if (rate > 0.0 ? stop->load() : i >= count) break;
      PublishRecord record;
      if (rate > 0.0) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / rate));
        std::this_thread::sleep_until(due);
        record.due_ms = MsSince(epoch_, due);
      }
      record.sent_ms = MsSince(epoch_, Clock::now());
      if (rate <= 0.0) record.due_ms = record.sent_ms;
      Delta delta = writer->Next();
      auto staged = client.StageInsert(delta.inserts);
      bool ok = staged.has_value() && staged->status == serve::MutationStatus::kOk;
      if (ok && !delta.deletes.empty()) {
        auto deleted = client.StageDelete(delta.deletes);
        ok = deleted.has_value() &&
             deleted->status == serve::MutationStatus::kOk;
      }
      std::optional<serve::MutationAck> ack;
      if (ok) ack = client.Publish();
      record.acked_ms = MsSince(epoch_, Clock::now());
      record.ok = ok && ack.has_value() &&
                  ack->status == serve::MutationStatus::kOk &&
                  !ack->already_applied &&
                  ack->physical_rows == physical + delta.inserts.size() &&
                  ack->snapshot_seq > last_seq;
      if (ack.has_value()) {
        record.seq = ack->snapshot_seq;
        record.id = ack->snapshot_id;
        physical = ack->physical_rows;
        last_seq = std::max(last_seq, ack->snapshot_seq);
      }
      if (record.ok) {
        const Clock::time_point read_start = Clock::now();
        if (rate > 0.0) {
          auto read = client.Query(ryw_query);
          record.ryw_ok = read.has_value() &&
                          read->status == serve::ServeStatus::kOk &&
                          read->snapshot_seq >= record.seq;
        } else {
          auto info = client.CatalogInfo();
          record.ryw_ok = info.has_value() && info->snapshot_seq >= record.seq;
        }
        record.ryw_ms = MsSince(read_start, Clock::now());
        result->acked_deltas.push_back(std::move(delta));
      }
      if (!client.connected()) {
        ++result->transport_failures;
        if (!client.Connect("127.0.0.1", port_)) break;
      }
      result->publishes.push_back(record);
    }
  }

  int port_;
  Clock::time_point epoch_;
};

// Queries answered per second and the p99 batch round trip in each of
// kWindows equal spans of the timed phase, a batch counted in the span
// its reply arrived in.
struct WindowStats {
  std::vector<double> qps;
  std::vector<double> p99_ms;
};

WindowStats PerWindow(const LoadResult& load) {
  const double span_ms = std::max(1e-9, load.wall_ms / kWindows);
  std::vector<double> answered(kWindows, 0.0);
  std::vector<std::vector<double>> rpc_ms(kWindows);
  for (const BatchRecord& b : load.batches) {
    if (!b.transport_ok) continue;
    const int w =
        std::clamp(static_cast<int>((b.end_ms - load.start_ms) / span_ms), 0,
                   kWindows - 1);
    rpc_ms[w].push_back(b.rpc_ms());
    for (const serve::ServeResponse& r : b.responses) {
      answered[w] += r.status == serve::ServeStatus::kOk ? 1.0 : 0.0;
    }
  }
  WindowStats stats;
  for (int w = 0; w < kWindows; ++w) {
    stats.qps.push_back(answered[w] / (span_ms / 1e3));
    stats.p99_ms.push_back(Percentile(rpc_ms[w], 0.99));
  }
  return stats;
}

// ---------------------------------------------------------------------
// Output.

class JsonObject {
 public:
  void Number(const std::string& key, double value) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", std::isfinite(value) ? value : 0.0);
    Raw(key, text);
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    char text[160];
    std::snprintf(text, sizeof(text), "{\"value\": %.17g, \"unit\": \"%s\"}",
                  std::isfinite(value) ? value : 0.0, unit.c_str());
    Raw(name, text);
  }
  void String(const std::string& key, const std::string& value) {
    std::string escaped;
    for (char c : value) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      if (c == '\n') continue;
      escaped.push_back(c);
    }
    Raw(key, "\"" + escaped + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + json;
  }
  std::string Str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--server") {
      args->server = value;
    } else if (key == "--work_dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return !args->workload.empty() && !args->server.empty() &&
         !args->work_dir.empty() && args->seconds > 0.0;
}

bool WriteCsvExact(const std::string& path, const Dataset& data) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "a0,a1,a2,a3\n");
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = 0; j < data.dim(); ++j) {
      std::fprintf(out, j == 0 ? "%.17g" : ",%.17g", data.At(i, j));
    }
    std::fputc('\n', out);
  }
  return std::fclose(out) == 0;
}

// One oR vertex enumeration: the constraints and the interior point
// core/result_region.cc would hand to IntersectHalfspaces.
struct GeometryJob {
  std::vector<Halfspace> halfspaces;
  Vec interior;
  int64_t qid = 0;
};

struct GeometryOutcome {
  bool ok = false;
  double ms = 0.0;
  size_t vertices = 0;
};

bool ReadFull(int fd, void* out, size_t len) {
  char* at = static_cast<char*>(out);
  while (len > 0) {
    const ssize_t got = ::read(fd, at, len);
    if (got <= 0) return false;
    at += got;
    len -= static_cast<size_t>(got);
  }
  return true;
}

// Runs the jobs in order in a forked child that reports each one's time
// and vertex count through a pipe. IntersectHalfspaces aborts or faults
// on some valid inputs (perfbench/README.md has reproducers), so a job
// that kills the child counts as failed and a fresh child resumes after
// it, instead of taking the benchmark down.
std::vector<GeometryOutcome> RunGeometryJobs(
    const std::vector<GeometryJob>& jobs) {
  std::vector<GeometryOutcome> outcomes(jobs.size());
  size_t next = 0;
  while (next < jobs.size()) {
    int fds[2];
    if (pipe(fds) != 0) break;
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      break;
    }
    if (pid == 0) {
      close(fds[0]);
      for (size_t i = next; i < jobs.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        const auto geometry =
            IntersectHalfspaces(jobs[i].halfspaces, jobs[i].interior);
        const double record[2] = {
            MsSince(t0, Clock::now()),
            geometry.has_value() ? static_cast<double>(geometry->vertices.size())
                                 : -1.0};
        if (::write(fds[1], record, sizeof record) != sizeof record) _exit(1);
      }
      _exit(0);
    }
    close(fds[1]);
    double record[2];
    while (next < jobs.size() && ReadFull(fds[0], record, sizeof record)) {
      outcomes[next].ok = record[1] >= 0.0;
      outcomes[next].ms = record[0];
      outcomes[next].vertices =
          record[1] >= 0.0 ? static_cast<size_t>(record[1]) : 0;
      ++next;
    }
    close(fds[0]);
    waitpid(pid, nullptr, 0);
    if (next < jobs.size()) ++next;  // this job took the child down
  }
  return outcomes;
}

// The cold pipeline the engine runs on a cache miss, one public layer
// function at a time, each inside its own span. Counters accumulate
// into `layer`.
struct LayerTotals {
  double queries = 0;
  double candidates = 0;
  double kernel_scored = 0, kernel_gather_bytes = 0, kernel_reuse_hits = 0;
  double regions_tested = 0, regions_split = 0, lemma5_prunes = 0;
  double split_vertices = 0, arena_allocations = 0;
  double vall_raw = 0, vall_unique = 0;
  double intersect_calls = 0, intersect_failures = 0, vertices = 0;
  std::vector<double> rskyband_ms, partition_ms, assemble_ms, intersect_ms;
};

void ReplayColdLadder(const DatasetView& view, const std::vector<int>& kskyband,
                      const ToprrQuery& query, int64_t parent, int64_t qid,
                      Tracer* tracer, LayerTotals* layer,
                      std::vector<GeometryJob>* geometry_jobs) {
  const PrefBox box = *BoxFromRegion(query.region);
  int64_t span = tracer->Begin("topk.rskyband", parent, qid);
  const std::vector<int> candidates = RSkyband(view, box, kK, &kskyband);
  tracer->End(span);
  layer->rskyband_ms.push_back(tracer->spans()[span - 1].duration());

  span = tracer->Begin("core.partition", parent, qid);
  PartitionConfig config = PartitionConfigFromOptions(query.options);
  const PartitionOutput partition = PartitionPreferenceRegion(
      view, candidates, kK, PrefRegion::FromBox(box), config);
  tracer->End(span);
  layer->partition_ms.push_back(tracer->spans()[span - 1].duration());

  const int64_t assemble = tracer->Begin("core.result_region", parent, qid);
  ToprrResult result;
  result.vall = DedupVertices(partition.vall);
  ToprrOptions halfspaces_only = query.options;
  halfspaces_only.build_geometry = false;
  AssembleResultRegion(view, candidates, kK, result.vall, halfspaces_only,
                       &result);
  if (geometry_jobs != nullptr && !result.degenerate &&
      result.impact_halfspaces.size() <=
          query.options.geometry_halfspace_limit) {
    // Same interior point as core/result_region.cc.
    double min_margin = 1.0;
    for (const Halfspace& h : result.impact_halfspaces) {
      min_margin = std::min(min_margin, 1.0 + h.offset);
    }
    const double delta = std::min(0.5 * min_margin, 0.25);
    geometry_jobs->push_back(
        {result.AllHalfspaces(), Vec(kDim, 1.0 - delta), qid});
  }
  tracer->End(assemble);
  layer->assemble_ms.push_back(tracer->spans()[assemble - 1].duration());

  layer->queries += 1;
  layer->candidates += candidates.size();
  for (const SchedulerWorkerStats& w : partition.scheduler.workers) {
    layer->kernel_scored += w.candidates_scored;
    layer->kernel_gather_bytes += w.block_gather_bytes;
    layer->kernel_reuse_hits += w.reuse_hits;
    layer->split_vertices += w.split_vertices_classified;
    layer->arena_allocations += w.arena_allocations + w.geom_arena_allocations;
  }
  layer->regions_tested += partition.regions_tested;
  layer->regions_split += partition.regions_split;
  layer->lemma5_prunes += partition.lemma5_prunes;
  layer->vall_raw += partition.vall.size();
  layer->vall_unique += result.vall.size();
}

double PerQuery(double total, double queries) {
  return queries > 0 ? total / queries : 0.0;
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  GlobalLogLevel() = LogLevel::kError;
  const Clock::time_point epoch = Clock::now();
  const std::string tag =
      args.workload + "-" + std::to_string(args.seed) + (args.trace ? "-t" : "");
  const fs::path work = fs::path(args.work_dir) / tag;
  fs::remove_all(work);
  fs::create_directories(work);

  // Wall time of each phase of the run, for the detail line.
  std::vector<std::pair<std::string, double>> phases;
  Clock::time_point phase_start = Clock::now();
  auto mark = [&](const std::string& name) {
    const Clock::time_point now = Clock::now();
    phases.emplace_back(name, MsSince(phase_start, now) / 1e3);
    phase_start = now;
  };

  // ---- Inputs from the seed. ----
  const Dataset generated = GenerateSynthetic(
      kRows, kDim, Distribution::kIndependent, kCatalogSeed);
  const std::string csv_path = (work / "catalog.csv").string();
  if (!WriteCsvExact(csv_path, generated)) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 2;
  }
  // The rows the server serves: the same CSV read and normalized the way
  // toprr_serve does it.
  std::optional<Dataset> loaded = ReadCsv(csv_path);
  if (!loaded.has_value()) return 2;
  Dataset data = std::move(*loaded);
  data.NormalizeUnit();
  const SnapshotPtr root = DatasetSnapshot::FromDataset(data);

  const size_t total_queries = static_cast<size_t>(
      std::max(1.0, std::round(args.seconds * spec.queries_per_second)));
  std::vector<PrefBox> boxes;
  ZipfMix mix;
  Rng query_rng(DeriveSeed(args.seed, 2));
  if (spec.mix == Mix::kZipf) {
    mix = BuildZipfMix(kDim - 1, spec.sigma, 1.2, 256, kCatalogSeed);
    for (size_t i = 0; i < total_queries; ++i) {
      boxes.push_back(SampleZipfBox(mix, query_rng));
    }
  } else {
    Rng placement_rng(DeriveSeed(kCatalogSeed, 2));
    boxes = StratifiedBoxes(total_queries, spec.sigma, placement_rng);
    // The seed orders the list (and with it which connection sends what
    // and which boxes meet in the cache).
    for (size_t i = boxes.size(); i > 1; --i) {
      std::swap(boxes[i - 1],
                boxes[static_cast<size_t>(query_rng.UniformInt(0, i - 1))]);
    }
  }
  const auto batches = Batches(boxes, spec.batch);
  // The writer's read-your-writes probe: a small fixed box, cheap to
  // solve cold on every new snapshot.
  const ToprrQuery ryw_query =
      MakeQuery(PrefBox{Vec(kDim - 1, 0.25), Vec(kDim - 1, 0.252)});

  mark("inputs");
  // ---- churn_durable: a data dir pre-populated with publishes, so the
  // server's set-up includes recovery. Each spawn gets a fresh copy. ----
  MutableCatalog replay_catalog(root);
  uint64_t physical_rows = kRows;
  const fs::path template_dir = work / "data_template";
  const uint64_t writer_seed = DeriveSeed(kCatalogSeed, 4);
  if (spec.churn) {
    DurabilityOptions durability;
    durability.data_dir = template_dir.string();
    durability.fsync_policy = FsyncPolicy::kOff;
    durability.checkpoint_every = kCheckpointEvery;
    std::string error;
    auto durable = DurableCatalog::Open(durability, &data, &error);
    if (durable == nullptr) {
      std::fprintf(stderr, "prepopulate: %s\n", error.c_str());
      return 2;
    }
    DeltaSource prepopulate(DeriveSeed(kCatalogSeed, 5), physical_rows);
    for (int i = 0; i < kPrepopulatePublishes; ++i) {
      const Delta delta = prepopulate.Next();
      auto outcome = durable->Publish(delta.inserts, delta.deletes, 0, 0);
      if (!outcome.ok) {
        std::fprintf(stderr, "prepopulate publish: %s\n", outcome.error.c_str());
        return 2;
      }
      ApplyDelta(&replay_catalog, delta);
    }
    if (durable->catalog()->CurrentId() != replay_catalog.CurrentId()) {
      std::fprintf(stderr, "prepopulate: replayed id differs\n");
      return 2;
    }
    durable->Flush();
    durable.reset();
    physical_rows = replay_catalog.Current()->rows();
  }
  const SnapshotPtr base = replay_catalog.Current();

  mark("prepopulate");
  std::vector<std::string> server_argv = {
      args.server,       "--port",          "0",
      "--csv",           csv_path,          "--cache",
      "--batch_threads", "1",               "--warm_k",
      std::to_string(kK), "--log",          "error"};
  const fs::path data_dir = work / "data";
  if (spec.churn) {
    server_argv.insert(server_argv.end(),
                       {"--data_dir", data_dir.string(), "--fsync",
                        FsyncPolicyName(kChurnFsync), "--checkpoint_every",
                        std::to_string(kCheckpointEvery)});
  }
  const std::string log_path = (work / "server.log").string();

  // ---- Set-up, timed kSetupSpawns times; the last server stays up. ----
  std::vector<double> setup_s, recovery_ms, replayed;
  std::unique_ptr<ServerProcess> server;
  auto spawn = [&](std::string* error) {
    if (spec.churn) {
      fs::remove_all(data_dir);
      fs::copy(template_dir, data_dir, fs::copy_options::recursive);
    }
    server = std::make_unique<ServerProcess>();
    const Clock::time_point t0 = Clock::now();
    if (!server->Start(server_argv, log_path, error)) return false;
    setup_s.push_back(MsSince(t0, Clock::now()) / 1e3);
    recovery_ms.push_back(LineField(server->recovery_line(), "recovery_ms"));
    replayed.push_back(LineField(server->recovery_line(), "replayed"));
    return true;
  };
  std::string error;
  for (int i = 0; i < kSetupSpawns; ++i) {
    if (i > 0) server->Stop();
    if (!spawn(&error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
  }
  mark("setup");
  // Fill pass: every profile once, untimed (empty for uniform_solve).
  const auto fill_batches = Batches(mix.profiles, spec.batch);
  auto fill = [&] {
    serve::ToprrClient filler;
    if (!filler.Connect("127.0.0.1", server->port())) return false;
    for (const auto& batch : fill_batches) {
      if (!filler.QueryBatch(batch).has_value()) return false;
    }
    return true;
  };
  if (!fill()) return 2;

  mark("fill");
  // Handshake sanity: the server serves exactly the catalog we replayed.
  uint64_t failed = 0;
  {
    serve::ToprrClient probe;
    if (!probe.Connect("127.0.0.1", server->port())) return 2;
    if (probe.server().snapshot_id != base->id()) ++failed;
  }

  // ---- Timed phase(s). With tracing, an untraced pass on a fresh server
  // precedes the traced one, so the overhead is measured. ----
  const double time_cap = 2.5 * args.seconds + 5.0;
  auto timed_phase = [&](LoadResult* load, ProcSample* before,
                         ProcSample* after, double* self_cpu_ms) {
    DeltaSource churn_writer(writer_seed, physical_rows);
    double cpu0 = 0.0;
    *load = LoadRunner(server->port(), epoch)
                .Run(batches, time_cap, spec.churn ? &churn_writer : nullptr,
                     kChurnPublishesPerSecond, ryw_query,
                     [&] {
                       *before = SampleProc(server->pid());
                       cpu0 = SelfCpuMs();
                     },
                     [&] {
                       *self_cpu_ms = SelfCpuMs() - cpu0;
                       *after = SampleProc(server->pid());
                     });
  };
  LoadResult load;
  ProcSample before, after;
  double loadgen_cpu_ms = 0.0;
  double untraced_rpc_mean = 0.0;
  timed_phase(&load, &before, &after, &loadgen_cpu_ms);
  if (args.trace) {
    std::vector<double> untraced_rpc_ms;
    for (const BatchRecord& b : load.batches) untraced_rpc_ms.push_back(b.rpc_ms());
    untraced_rpc_mean = Mean(untraced_rpc_ms);
    server->Stop();
    if (!spawn(&error)) return 2;
    setup_s.pop_back();
    if (!fill()) return 2;
    LoadResult traced;
    // Same code path; the spans are derived from the batch records.
    timed_phase(&traced, &before, &after, &loadgen_cpu_ms);
    load = std::move(traced);
  }
  const int live_port = server->port();

  mark("timed");
  // Read workloads: closed-loop in-memory publishes once reads are done.
  LoadResult probe;
  if (!spec.churn) {
    DeltaSource probe_writer(writer_seed, physical_rows);
    probe = LoadRunner(live_port, epoch).Probe(&probe_writer, kProbePublishes,
                                               ryw_query);
  }
  const LoadResult& writes = spec.churn ? load : probe;

  mark("probe");
  // Final served snapshot, then stop the server.
  uint64_t final_served_id = 0;
  {
    serve::ToprrClient info;
    if (info.Connect("127.0.0.1", live_port)) {
      auto ack = info.CatalogInfo();
      if (ack.has_value()) final_served_id = ack->snapshot_id;
    }
  }
  server->Stop();
  const rusage server_usage = server->usage();
  const std::string shutdown_line = server->shutdown_line();
  const int server_status = server->status();

  mark("stop");
  // ---- Correctness. ----
  uint64_t attempted = 0;
  uint64_t ok_queries = 0;
  uint64_t rejected_overload = 0;
  std::vector<double> rpc_ms;
  FILE* failure_log = std::fopen((work / "failures.txt").c_str(), "w");
  for (const BatchRecord& b : load.batches) {
    if (!b.transport_ok) {
      const auto& sent = batches[&b - load.batches.data()];
      attempted += sent.size();
      failed += sent.size();
      for (const ToprrQuery& query : sent) {
        const PrefBox box = *BoxFromRegion(query.region);
        std::fprintf(failure_log,
                     "no reply (server exit status %d): box lo %.17g %.17g "
                     "%.17g hi %.17g %.17g %.17g\n",
                     server_status, box.lo[0], box.lo[1], box.lo[2],
                     box.hi[0], box.hi[1], box.hi[2]);
      }
      continue;
    }
    attempted += b.responses.size();
    rpc_ms.push_back(b.rpc_ms());
    for (const serve::ServeResponse& r : b.responses) {
      if (r.status == serve::ServeStatus::kOk) {
        ++ok_queries;
      } else {
        ++failed;
        if (r.status == serve::ServeStatus::kRejectedOverload) {
          ++rejected_overload;
        }
      }
    }
  }
  failed += load.seq_regressions + load.transport_failures +
            probe.transport_failures;
  uint64_t mismatches = 0;
  uint64_t bit_identical = 0;
  double worst_distance = 0.0;  // largest relative reach difference

  if (!spec.churn) {
    // Re-solve every distinct served kOk query with the cache off.
    std::map<std::string, size_t> distinct;
    std::vector<ToprrQuery> reference_queries;
    std::vector<std::pair<const serve::ServeResponse*, size_t>> checks;
    // Batches go out in list order, so the records are a prefix of it.
    for (size_t b = 0; b < load.batches.size(); ++b) {
      const BatchRecord& record = load.batches[b];
      if (!record.transport_ok) continue;
      for (size_t q = 0; q < record.responses.size(); ++q) {
        const ToprrQuery& query = batches[b][q];
        if (record.responses[q].status != serve::ServeStatus::kOk) continue;
        const std::string key = BoxKey(*BoxFromRegion(query.region));
        auto inserted = distinct.emplace(key, reference_queries.size());
        if (inserted.second) {
          ToprrQuery reference = query;
          reference.options.use_region_cache = false;
          reference_queries.push_back(std::move(reference));
        }
        checks.emplace_back(&record.responses[q], inserted.first->second);
      }
    }
    ToprrEngine reference_engine(root);
    const std::vector<ToprrResult> expected =
        reference_engine.SolveBatch(reference_queries, 4);
    for (const auto& [served, index] : checks) {
      const ToprrResult& reference = expected[index];
      if (SameAnswer(*served, reference)) {
        ++bit_identical;
        continue;
      }
      const double distance = RegionDistance(*served, reference);
      worst_distance = std::max(worst_distance, distance);
      if (distance > 1e-9) {
        ++mismatches;
        const PrefBox box = *BoxFromRegion(reference_queries[index].region);
        std::fprintf(failure_log,
                     "reach differs by %.3g: box lo %.17g %.17g %.17g hi "
                     "%.17g %.17g %.17g; served %zu halfspaces (degenerate "
                     "%d, cache lookup %d), reference %zu (degenerate %d)\n",
                     distance, box.lo[0], box.lo[1], box.lo[2], box.hi[0],
                     box.hi[1], box.hi[2], served->impact_halfspaces.size(),
                     served->degenerate, served->stats.cache_lookup,
                     reference.impact_halfspaces.size(), reference.degenerate);
      }
    }
  }
  std::fclose(failure_log);
  // Writer: every publish acked, read-your-writes held, and the final
  // served id equals the id of the acked deltas replayed locally.
  std::vector<double> publish_ms;
  std::vector<double> writer_lag_ms;
  std::vector<double> ryw_ms;
  uint64_t publish_failures = 0;
  for (const PublishRecord& p : writes.publishes) {
    publish_ms.push_back(p.acked_ms - p.due_ms);
    writer_lag_ms.push_back(p.sent_ms - p.due_ms);
    ryw_ms.push_back(p.ryw_ms);
    if (!p.ok || !p.ryw_ok) ++publish_failures;
  }
  attempted += writes.publishes.size();
  std::vector<SnapshotPtr> published;
  for (const Delta& delta : writes.acked_deltas) {
    published.push_back(ApplyDelta(&replay_catalog, delta));
  }
  if (replay_catalog.CurrentId() != final_served_id) ++publish_failures;
  failed += mismatches + publish_failures;
  attempted = std::max<uint64_t>(attempted, 1);

  const double wall_s = load.wall_ms / 1e3;
  const double server_cpu_ms = after.cpu_ms - before.cpu_ms;
  const double peak_rss_mb = std::max(
      after.peak_rss_mb, static_cast<double>(server_usage.ru_maxrss) / 1024.0);

  mark("check");
  // ---- Per-layer replay (traced runs only). ----
  JsonObject per_layer;
  if (args.trace) {
    Tracer tracer(epoch);
    // rpc spans of the leading batches (client-side round trips).
    const size_t replay_batches = std::min(kReplayBatches, load.batches.size());
    std::vector<int64_t> rpc_span(replay_batches, 0);
    double rpc_total = 0.0, server_total = 0.0;
    std::vector<double> residual_ms;
    for (size_t b = 0; b < replay_batches; ++b) {
      const BatchRecord& record = load.batches[b];
      rpc_span[b] = tracer.Add("rpc", record.start_ms, record.end_ms, 0,
                               static_cast<int64_t>(b));
      double server_s = 0.0;
      for (const auto& r : record.responses) server_s += r.stats.total_seconds;
      rpc_total += record.rpc_ms();
      server_total += server_s * 1e3;
      residual_ms.push_back(record.rpc_ms() - server_s * 1e3);
    }

    // Wire codec on the captured frames.
    double codec_ms = 0.0, wire_bytes = 0.0, codec_queries = 0.0;
    for (size_t b = 0; b < replay_batches; ++b) {
      const Clock::time_point t0 = Clock::now();
      const std::string request = serve::EncodeQueryBatch(batches[b]);
      std::vector<ToprrQuery> decoded;
      std::string decode_error;
      serve::DecodeQueryBatch(request, &decoded, &decode_error);
      const std::string response =
          serve::EncodeResponseBatch(load.batches[b].responses);
      std::vector<serve::ServeResponse> responses;
      serve::DecodeResponseBatch(response, &responses, &decode_error);
      codec_ms += MsSince(t0, Clock::now());
      wire_bytes += request.size() + response.size();
      codec_queries += batches[b].size();
    }

    // Engine replay: configured like the server (cache on, same fill).
    ToprrEngine engine(base);
    RegionCacheConfig cache_config;
    cache_config.byte_budget = kCacheBudgetBytes;
    cache_config.quantum = kCacheQuantum;
    engine.EnableRegionCache(cache_config);
    const Clock::time_point sky0 = Clock::now();
    const std::vector<int> kskyband = engine.KSkyband(kK);
    const double kskyband_ms = MsSince(sky0, Clock::now());
    auto cached = [](std::vector<ToprrQuery> batch) {
      for (ToprrQuery& q : batch) {
        q.options.use_region_cache = true;
        q.options.time_budget_seconds = 10.0;
      }
      return batch;
    };
    for (const auto& batch : fill_batches) engine.SolveBatch(cached(batch), 1);
    LayerTotals layer;
    std::vector<GeometryJob> geometry_jobs;
    std::vector<double> engine_ms;
    // The served snapshot of every version the writer published, so the
    // replay follows the server through each publish (and the cache
    // invalidation it causes).
    std::map<uint64_t, SnapshotPtr> by_seq = {{base->seq(), base}};
    for (const SnapshotPtr& snapshot : published) {
      by_seq[snapshot->seq()] = snapshot;
    }
    for (size_t b = 0; b < replay_batches; ++b) {
      if (!load.batches[b].responses.empty()) {
        auto it = by_seq.find(load.batches[b].responses.front().snapshot_seq);
        if (it != by_seq.end() && it->first > engine.snapshot_seq()) {
          engine.SetSnapshot(it->second);
        }
      }
      const SnapshotPtr pinned = engine.snapshot();
      const std::vector<int>& candidates_superset = engine.KSkyband(kK);
      const auto batch = cached(batches[b]);
      const int64_t solve = tracer.Begin("engine.solve", rpc_span[b],
                                         static_cast<int64_t>(b));
      const std::vector<ToprrResult> results = engine.SolveBatch(batch, 1);
      tracer.End(solve);
      engine_ms.push_back(tracer.spans()[solve - 1].duration());
      for (size_t q = 0; q < batch.size(); ++q) {
        const SchedulerStats& s = results[q].stats.scheduler;
        if (s.cache_hits == 0 && s.cache_partial_hits == 0) {
          ReplayColdLadder(pinned->View(), candidates_superset, batch[q], solve,
                           static_cast<int64_t>(b), &tracer, &layer,
                           spec.replay_geometry ? &geometry_jobs : nullptr);
        }
      }
    }
    // Vertex enumeration of the replayed queries, one forked child for
    // all (see RunGeometryJobs); the spans carry the child's timings and
    // are roots, since served queries skip it.
    double geometry_at = MsSince(epoch, Clock::now());
    const std::vector<GeometryOutcome> outcomes = RunGeometryJobs(geometry_jobs);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      layer.intersect_calls += 1;
      if (!outcomes[i].ok) {
        layer.intersect_failures += 1;
        continue;
      }
      tracer.Add("geom.intersect", geometry_at, geometry_at + outcomes[i].ms,
                 0, geometry_jobs[i].qid);
      geometry_at += outcomes[i].ms;
      layer.intersect_ms.push_back(outcomes[i].ms);
      layer.vertices += outcomes[i].vertices;
    }
    const RegionCacheCounters cache_counters =
        engine.region_cache()->Counters();

    // Writer replay: stage + publish on a local catalog, the WAL append
    // and checkpoints of the durable path, and the engine's carry-forward.
    MutableCatalog writer_catalog(base);
    ToprrEngine snapshot_engine(base);
    snapshot_engine.KSkyband(kK);
    std::unique_ptr<WalWriter> wal;
    if (spec.churn) {
      auto file = PosixWalFile::OpenAppend((work / "replay.wal").string(), &error);
      if (file != nullptr) {
        wal = std::make_unique<WalWriter>(std::move(file), kChurnFsync);
      }
    }
    std::vector<double> snapshot_publish_ms, wal_append_ms, checkpoint_ms,
        set_snapshot_ms;
    for (size_t i = 0; i < writes.acked_deltas.size(); ++i) {
      const Delta& delta = writes.acked_deltas[i];
      const int64_t publish =
          tracer.Begin("data.publish", 0, static_cast<int64_t>(i));
      const SnapshotPtr parent = writer_catalog.Current();
      const SnapshotPtr next = ApplyDelta(&writer_catalog, delta);
      snapshot_publish_ms.push_back(
          MsSince(tracer.epoch(), Clock::now()) -
          tracer.spans()[publish - 1].start_ms);
      if (wal != nullptr) {
        const int64_t append =
            tracer.Begin("data.wal.append", publish, static_cast<int64_t>(i));
        PublishWalRecord record;
        record.parent_id = parent->id();
        record.parent_seq = parent->seq();
        record.child_id = next->id();
        record.child_seq = next->seq();
        record.first_insert_id = parent->rows();
        record.dim = kDim;
        record.inserts = delta.inserts;
        for (uint64_t id : delta.deletes) {
          record.deletes.push_back(static_cast<int>(id));
        }
        wal->AppendRecord(EncodePublishWalRecord(record));
        tracer.End(append);
        wal_append_ms.push_back(tracer.spans()[append - 1].duration());
        if ((i + 1) % kCheckpointEvery == 0) {
          const int64_t checkpoint = tracer.Begin("data.checkpoint", publish,
                                                  static_cast<int64_t>(i));
          WriteCheckpointFile((work / "replay.ckpt").string(), *next, {},
                              &error);
          tracer.End(checkpoint);
          checkpoint_ms.push_back(tracer.spans()[checkpoint - 1].duration());
        }
      }
      tracer.End(publish);
      const Clock::time_point set0 = Clock::now();
      snapshot_engine.SetSnapshot(next);
      snapshot_engine.KSkyband(kK);
      set_snapshot_ms.push_back(MsSince(set0, Clock::now()));
    }
    const ToprrEngine::UpdateCounters update = snapshot_engine.update_counters();

    tracer.Write((work / "spans.json").string());
    const std::map<std::string, double> self = tracer.SelfTimes();
    auto self_of = [&](const std::string& name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const double nb = std::max<double>(1.0, replay_batches);
    const double np = std::max<double>(1.0, writes.acked_deltas.size());
    double served_queries = 0.0;
    uint64_t hits = 0, partials = 0, misses = 0, tasks_saved = 0;
    std::vector<double> hit_ms, miss_ms;
    for (const BatchRecord& b : load.batches) {
      for (const auto& r : b.responses) {
        served_queries += 1;
        tasks_saved += r.stats.cache_tasks_saved;
        const auto lookup = static_cast<serve::CacheLookup>(r.stats.cache_lookup);
        if (lookup == serve::CacheLookup::kHit) ++hits;
        if (lookup == serve::CacheLookup::kPartial) ++partials;
        if (lookup == serve::CacheLookup::kMiss) ++misses;
        (lookup == serve::CacheLookup::kHit ||
                 lookup == serve::CacheLookup::kPartial
             ? hit_ms
             : miss_ms)
            .push_back(r.stats.total_seconds * 1e3);
      }
    }
    const double sq = std::max(1.0, served_queries);
    const double wal_appends = LineField(shutdown_line, "wal_appends");
    double user_bytes = 0.0;
    for (const Delta& d : writes.acked_deltas) {
      user_bytes += d.inserts.size() * kDim * sizeof(double) +
                    d.deletes.size() * sizeof(uint64_t);
    }
    // Layer self times per batch of the replayed prefix; the remainder is
    // the part of rpc no layer accounts for (server solve time the
    // in-process replay does not reproduce).
    const double serve_self = rpc_total - server_total;
    const double layers_self =
        self_of("engine.solve") + self_of("topk.rskyband") +
        self_of("core.partition") + self_of("core.result_region");
    const double traced_rpc_mean = Mean(rpc_ms);

    per_layer.Metric("serve.rpc_residual_ms", Percentile(residual_ms, 0.5), "ms");
    per_layer.Metric("serve.codec_us_per_query",
                     1e3 * PerQuery(codec_ms, codec_queries), "us");
    per_layer.Metric("serve.bytes_per_query", PerQuery(wire_bytes, codec_queries),
                     "bytes");
    per_layer.Metric("serve.rejected_overload", rejected_overload, "count");
    per_layer.Metric("core.engine.solve_ms_p50", Percentile(engine_ms, 0.5), "ms");
    per_layer.Metric("core.engine.solve_ms_p99", Percentile(engine_ms, 0.99), "ms");
    per_layer.Metric("core.engine.set_snapshot_ms", Mean(set_snapshot_ms), "ms");
    per_layer.Metric("core.engine.skyband_incremental", update.skyband_incremental,
                     "count");
    per_layer.Metric("core.engine.skyband_rebuilds", update.skyband_rebuilds,
                     "count");
    per_layer.Metric("topk.kskyband_ms", kskyband_ms, "ms");
    per_layer.Metric("topk.kskyband_size", kskyband.size(), "rows");
    per_layer.Metric("topk.rskyband_ms", Mean(layer.rskyband_ms), "ms");
    per_layer.Metric("topk.candidates", PerQuery(layer.candidates, layer.queries),
                     "rows");
    per_layer.Metric("topk.kernel_candidates_scored",
                     PerQuery(layer.kernel_scored, layer.queries), "count");
    per_layer.Metric("topk.kernel_gather_bytes",
                     PerQuery(layer.kernel_gather_bytes, layer.queries), "bytes");
    per_layer.Metric("topk.kernel_reuse_hits",
                     PerQuery(layer.kernel_reuse_hits, layer.queries), "count");
    per_layer.Metric("core.partition.ms", Mean(layer.partition_ms), "ms");
    per_layer.Metric("core.partition.regions_tested",
                     PerQuery(layer.regions_tested, layer.queries), "count");
    per_layer.Metric("core.partition.regions_split",
                     PerQuery(layer.regions_split, layer.queries), "count");
    per_layer.Metric("core.partition.lemma5_prunes",
                     PerQuery(layer.lemma5_prunes, layer.queries), "count");
    per_layer.Metric("pref.split_vertices",
                     PerQuery(layer.split_vertices, layer.queries), "count");
    per_layer.Metric("pref.arena_allocations",
                     PerQuery(layer.arena_allocations, layer.queries), "count");
    per_layer.Metric("core.result_region.assemble_ms", Mean(layer.assemble_ms),
                     "ms");
    per_layer.Metric("core.result_region.vall_raw",
                     PerQuery(layer.vall_raw, layer.queries), "count");
    per_layer.Metric("core.result_region.vall_unique",
                     PerQuery(layer.vall_unique, layer.queries), "count");
    per_layer.Metric("core.result_region.dedup_yield",
                     layer.vall_raw > 0 ? layer.vall_unique / layer.vall_raw : 0.0,
                     "ratio");
    per_layer.Metric("geom.intersect_ms", Mean(layer.intersect_ms), "ms");
    per_layer.Metric("geom.vertices",
                     PerQuery(layer.vertices,
                              layer.intersect_calls - layer.intersect_failures),
                     "count");
    per_layer.Metric("geom.intersect_failures", layer.intersect_failures,
                     "count");
    per_layer.Metric("core.region_cache.hit_rate", hits / sq, "ratio");
    per_layer.Metric("core.region_cache.partial_rate", partials / sq, "ratio");
    per_layer.Metric("core.region_cache.insertions", cache_counters.insertions,
                     "count");
    per_layer.Metric("core.region_cache.evictions", cache_counters.evictions,
                     "count");
    per_layer.Metric("core.region_cache.tasks_saved", tasks_saved / sq, "count");
    per_layer.Metric("core.region_cache.hit_solve_ms", Percentile(hit_ms, 0.5),
                     "ms");
    per_layer.Metric("core.region_cache.miss_solve_ms", Percentile(miss_ms, 0.5),
                     "ms");
    per_layer.Metric("data.snapshot.publish_ms", Mean(snapshot_publish_ms), "ms");
    per_layer.Metric("data.wal.append_ms", Mean(wal_append_ms), "ms");
    per_layer.Metric("data.wal.fsyncs_per_publish",
                     wal_appends > 0
                         ? LineField(shutdown_line, "wal_fsyncs") / wal_appends
                         : 0.0,
                     "count");
    per_layer.Metric("data.wal.bytes_per_user_byte",
                     user_bytes > 0 && wal_appends > 0
                         ? LineField(shutdown_line, "wal_bytes") / user_bytes
                         : 0.0,
                     "ratio");
    per_layer.Metric("data.wal.checkpoints", LineField(shutdown_line, "checkpoints"),
                     "count");
    per_layer.Metric("data.wal.checkpoint_ms", Mean(checkpoint_ms), "ms");
    per_layer.Metric("data.recovery.s", Percentile(recovery_ms, 0.5) / 1e3, "s");
    per_layer.Metric("data.recovery.replayed_records", Percentile(replayed, 0.5),
                     "count");
    per_layer.Metric("proc.voluntary_csw_per_query",
                     PerQuery(after.voluntary_csw - before.voluntary_csw,
                              std::max<double>(1.0, ok_queries)),
                     "count");
    per_layer.Metric("proc.involuntary_csw",
                     after.involuntary_csw - before.involuntary_csw, "count");
    per_layer.Metric("loadgen.cpu_ms_per_query",
                     PerQuery(loadgen_cpu_ms, std::max<double>(1.0, ok_queries)),
                     "ms");
    per_layer.Metric("loadgen.writer_lag_ms", Percentile(writer_lag_ms, 0.99),
                     "ms");
    per_layer.Metric("trace.rpc_ms", rpc_total / nb, "ms");
    per_layer.Metric("trace.self_ms.serve", serve_self / nb, "ms");
    per_layer.Metric("trace.self_ms.core.engine", self_of("engine.solve") / nb,
                     "ms");
    per_layer.Metric("trace.self_ms.topk.rskyband", self_of("topk.rskyband") / nb,
                     "ms");
    per_layer.Metric("trace.self_ms.core.partition",
                     self_of("core.partition") / nb, "ms");
    per_layer.Metric("trace.self_ms.core.result_region",
                     self_of("core.result_region") / nb, "ms");
    per_layer.Metric("trace.self_ms.geom.intersect",
                     self_of("geom.intersect") / nb, "ms");
    per_layer.Metric("trace.unattributed_ms",
                     (rpc_total - serve_self - layers_self) / nb, "ms");
    per_layer.Metric("trace.self_ms.data.publish", self_of("data.publish") / np,
                     "ms");
    per_layer.Metric("trace.self_ms.data.wal.append",
                     self_of("data.wal.append") / np, "ms");
    per_layer.Metric("trace.self_ms.data.checkpoint",
                     self_of("data.checkpoint") / np, "ms");
    per_layer.Metric("trace.overhead_ms", traced_rpc_mean - untraced_rpc_mean,
                     "ms");
    per_layer.Metric("error_rate", static_cast<double>(failed) / attempted,
                     "ratio");
  }

  mark("replay");
  JsonObject metrics;
  const WindowStats windows = PerWindow(load);
  metrics.Metric("query_qps", Percentile(windows.qps, 0.5), "queries/s");
  metrics.Metric("query_p50_ms", Percentile(rpc_ms, 0.50), "ms");
  metrics.Metric("query_p99_ms", Percentile(windows.p99_ms, 0.5), "ms");
  metrics.Metric("publish_p50_ms", Percentile(publish_ms, 0.50), "ms");
  metrics.Metric("publish_p99_ms", Percentile(publish_ms, 0.99), "ms");
  metrics.Metric("success_rate",
                 1.0 - static_cast<double>(failed) / attempted, "ratio");
  metrics.Metric("setup_s", Percentile(setup_s, 0.5), "s");
  metrics.Metric("server_cpu_ms_per_query",
                 server_cpu_ms / std::max<double>(1.0, ok_queries), "ms");
  metrics.Metric("server_peak_rss_mb", peak_rss_mb, "MiB");

  JsonObject detail;
  detail.String("workload", args.workload);
  detail.Number("seed", static_cast<double>(args.seed));
  detail.Number("batches", static_cast<double>(load.batches.size()));
  detail.Number("queries_ok", static_cast<double>(ok_queries));
  detail.Number("timed_wall_s", wall_s);
  detail.Number("whole_run_qps", ok_queries / std::max(1e-9, wall_s));
  detail.Number("whole_run_p99_ms", Percentile(rpc_ms, 0.99));
  detail.Number("truncated", load.truncated ? 1 : 0);
  detail.Number("publishes", static_cast<double>(writes.publishes.size()));
  detail.Number("mismatches", static_cast<double>(mismatches));
  detail.Number("bit_identical", static_cast<double>(bit_identical));
  detail.Number("worst_reach_difference", worst_distance);
  detail.Number("publish_failures", static_cast<double>(publish_failures));
  detail.Number("seq_regressions", static_cast<double>(load.seq_regressions));
  detail.Number("writer_lag_p99_ms", Percentile(writer_lag_ms, 0.99));
  {
    std::vector<double> service;
    for (const PublishRecord& p : writes.publishes) service.push_back(p.acked_ms - p.sent_ms);
    detail.Number("publish_service_p50_ms", Percentile(service, 0.5));
    detail.Number("publish_p90_ms", Percentile(publish_ms, 0.9));
    detail.Number("publish_max_ms", Percentile(publish_ms, 1.0));
    detail.Number("publish_service_p99_ms", Percentile(service, 0.99));
  }
  {
    double hits = 0, all = 0;
    for (const BatchRecord& b : load.batches) {
      for (const auto& r : b.responses) {
        all += 1;
        hits += r.stats.cache_lookup ==
                static_cast<uint8_t>(serve::CacheLookup::kHit);
      }
    }
    detail.Number("cache_hit_rate", all > 0 ? hits / all : 0.0);
  }
  detail.Number("loadgen_cpu_ms", loadgen_cpu_ms);
  detail.Number("server_exit_status", server_status);
  detail.Number("ryw_read_p50_ms", Percentile(ryw_ms, 0.5));
  detail.Number("server_cpu_ms", server_cpu_ms);
  auto list = [](const std::vector<double>& values) {
    std::string text = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      char number[32];
      std::snprintf(number, sizeof(number), "%s%.4g", i ? ", " : "", values[i]);
      text += number;
    }
    return text + "]";
  };
  detail.Raw("setup_s_all", list(setup_s));
  detail.Raw("window_qps", list(windows.qps));
  detail.Raw("window_p99_ms", list(windows.p99_ms));
  {
    // Where the tail is: server-reported solve time per batch, and the
    // rest of the round trip (wire, wake-ups, queueing).
    std::vector<double> solve_ms, rest_ms;
    for (const BatchRecord& b : load.batches) {
      double server_s = 0.0;
      for (const auto& r : b.responses) server_s += r.stats.total_seconds;
      solve_ms.push_back(server_s * 1e3);
      rest_ms.push_back(b.rpc_ms() - server_s * 1e3);
    }
    detail.Number("batch_solve_p50_ms", Percentile(solve_ms, 0.5));
    detail.Number("batch_solve_p99_ms", Percentile(solve_ms, 0.99));
    detail.Number("batch_rest_p50_ms", Percentile(rest_ms, 0.5));
    detail.Number("batch_rest_p99_ms", Percentile(rest_ms, 0.99));
  }
  detail.Number("host_steal_pct",
                100.0 * (after.host_steal_ms - before.host_steal_ms) /
                    std::max(1.0, load.wall_ms *
                                      std::thread::hardware_concurrency()));
  {
    JsonObject phase_s;
    for (const auto& [name, seconds] : phases) phase_s.Number(name, seconds);
    detail.Raw("phase_s", phase_s.Str());
  }
  detail.Raw("end_to_end", metrics.Str());
  {
    std::ofstream out((work / "result.json").string());
    out << detail.Str() << "\n";
  }
  std::printf("perfbench detail %s\n", detail.Str().c_str());
  // Keep the small records (result.json, spans.json, server.log); the
  // catalog and data directories are regenerated from the seed.
  for (const char* bulky : {"catalog.csv", "data", "data_template", "replay.wal",
                            "replay.ckpt"}) {
    fs::remove_all(work / bulky);
  }

  JsonObject final_line;
  final_line.Raw("correct", failed == 0 ? "true" : "false");
  final_line.Raw("attempted", std::to_string(attempted));
  final_line.Raw("failed", std::to_string(failed));
  final_line.Raw("metrics", args.trace ? per_layer.Str() : metrics.Str());
  std::printf("%s\n", final_line.Str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --server PATH --work_dir DIR\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  return Run(args);
}
