#include "topk/score_kernel.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/check.h"

namespace toprr {
namespace {

// Columns are padded to a multiple of 8 doubles so each starts on a
// 64-byte boundary (cache-line / AVX-512 width).
constexpr size_t kPadDoubles = 8;
constexpr size_t kAlignBytes = 64;

size_t PaddedStride(size_t n) {
  return ((n + kPadDoubles - 1) / kPadDoubles) * kPadDoubles;
}

// One fused sweep of a vertex over the block: for every candidate c the
// accumulation is base[c], then + x[j] * diff_j[c] for j = 0..M-1 -- the
// exact operation sequence of ReducedScore, so results are bit-identical
// to the naive scan. The candidate loop's iterations are independent,
// which lets the compiler vectorize across c (each lane keeps its own
// sequential accumulation order); the compile-time M unrolls the inner
// loop so the column pointers stay in registers.
template <size_t M>
void SweepFixed(const double* block, size_t stride, const double* x,
                const double* base, size_t count, double* row) {
  for (size_t c = 0; c < count; ++c) {
    double acc = base[c];
    for (size_t j = 0; j < M; ++j) acc += x[j] * block[j * stride + c];
    row[c] = acc;
  }
}

void SweepGeneric(const double* block, size_t stride, const double* x,
                  const double* base, size_t m, size_t count, double* row) {
  for (size_t c = 0; c < count; ++c) {
    double acc = base[c];
    for (size_t j = 0; j < m; ++j) acc += x[j] * block[j * stride + c];
    row[c] = acc;
  }
}

void Sweep(const double* block, size_t stride, const double* x,
           const double* base, size_t m, size_t count, double* row) {
  switch (m) {
    case 1: SweepFixed<1>(block, stride, x, base, count, row); break;
    case 2: SweepFixed<2>(block, stride, x, base, count, row); break;
    case 3: SweepFixed<3>(block, stride, x, base, count, row); break;
    case 4: SweepFixed<4>(block, stride, x, base, count, row); break;
    case 5: SweepFixed<5>(block, stride, x, base, count, row); break;
    case 6: SweepFixed<6>(block, stride, x, base, count, row); break;
    case 7: SweepFixed<7>(block, stride, x, base, count, row); break;
    default: SweepGeneric(block, stride, x, base, m, count, row); break;
  }
}

}  // namespace

const double* VertexScoreCache::RowFor(const double* vertex,
                                       size_t vdim) const {
  if (vdim != dim || dim == 0) return nullptr;
  const size_t nv = num_vertices();
  const size_t stride = candidates.size();
  for (size_t v = 0; v < nv; ++v) {
    const double* cached = coords.data() + v * dim;
    bool match = true;
    for (size_t j = 0; j < dim; ++j) {
      if (cached[j] != vertex[j]) {
        match = false;
        break;
      }
    }
    if (match) return rows.data() + v * stride;
  }
  return nullptr;
}

AlignedDoubles::~AlignedDoubles() {
  if (data_ != nullptr) {
    ::operator delete[](data_, std::align_val_t(kAlignBytes));
  }
}

bool AlignedDoubles::Reserve(size_t n) {
  if (n <= capacity_) return false;
  size_t grown = capacity_ == 0 ? kPadDoubles : capacity_;
  while (grown < n) grown *= 2;
  double* fresh = static_cast<double*>(::operator new[](
      grown * sizeof(double), std::align_val_t(kAlignBytes)));
  if (data_ != nullptr) {
    ::operator delete[](data_, std::align_val_t(kAlignBytes));
  }
  data_ = fresh;
  capacity_ = grown;
  return true;
}

std::vector<TopkResult>& ScoreArena::Profiles(size_t count) {
  if (profiles_.capacity() < count) ++counters_.arena_allocations;
  if (profiles_.size() < count) profiles_.resize(count);
  return profiles_;
}

void ScoreKernel::LoadBlock(const DatasetView& data,
                            const std::vector<int>& ids) {
  CHECK(!ids.empty());
  const size_t m = data.dim() - 1;
  const size_t count = ids.size();
  if (arena_.pool_ids_.capacity() < count) {
    ++arena_.counters_.arena_allocations;
  }
  arena_.pool_ids_.assign(ids.begin(), ids.end());
  pool_ = &arena_.pool_ids_;
  dim_ = m;
  stride_ = PaddedStride(count);
  DCHECK(std::is_sorted(ids.begin(), ids.end()))
      << "candidate pools are ascending everywhere (rskyband output and "
         "Lemma-5 reductions preserve order); ScoreOf relies on it";

  if (arena_.block_.Reserve((m + 1) * stride_)) {
    ++arena_.counters_.arena_allocations;
  }
  double* block = arena_.block_.data();
  // Candidate-outer gather: one contiguous source row read per candidate,
  // strided writes into the dim-major columns. Row addressing goes
  // through the view so chunked snapshot storage gathers identically to
  // a contiguous Dataset (the read is per-row either way).
  for (size_t c = 0; c < count; ++c) {
    const double* row = data.Row(static_cast<size_t>(ids[c]));
    const double base = row[m];
    for (size_t j = 0; j < m; ++j) {
      block[j * stride_ + c] = row[j] - base;
    }
    block[m * stride_ + c] = base;
  }
  arena_.counters_.block_gather_bytes +=
      static_cast<uint64_t>((m + 1) * count * sizeof(double));
}

void ScoreKernel::ScoreVertexRow(const double* x, size_t vertex,
                                 const VertexScoreCache* reuse) {
  const size_t count = pool_->size();
  const size_t m = dim_;
  double* row = arena_.scores_.data() + vertex * stride_;
  if (reuse != nullptr) {
    const double* cached = reuse->RowFor(x, m);
    if (cached != nullptr) {
      DCHECK_EQ(reuse->candidates.size(), count);
      std::memcpy(row, cached, count * sizeof(double));
      ++arena_.counters_.reuse_hits;
      return;
    }
  }
  const double* block = arena_.block_.data();
  const double* base = block + m * stride_;
  Sweep(block, stride_, x, base, m, count, row);
  arena_.counters_.candidates_scored += count;
}

void ScoreKernel::ScoreVertices(const std::vector<Vec>& vertices,
                                const VertexScoreCache* reuse) {
  CHECK(pool_ != nullptr) << "LoadBlock first";
  if (arena_.scores_.Reserve(vertices.size() * stride_)) {
    ++arena_.counters_.arena_allocations;
  }
  for (size_t v = 0; v < vertices.size(); ++v) {
    ScoreVertexRow(vertices[v].data(), v, reuse);
  }
}

void ScoreKernel::ScoreVertices(const double* coords, size_t count,
                                const VertexScoreCache* reuse) {
  CHECK(pool_ != nullptr) << "LoadBlock first";
  if (arena_.scores_.Reserve(count * stride_)) {
    ++arena_.counters_.arena_allocations;
  }
  for (size_t v = 0; v < count; ++v) {
    ScoreVertexRow(coords + v * dim_, v, reuse);
  }
}

double ScoreKernel::ScoreOf(size_t vertex, int id) const {
  const std::vector<int>& ids = *pool_;
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  DCHECK(it != ids.end() && *it == id) << "id " << id << " not in pool";
  return Scores(vertex)[static_cast<size_t>(it - ids.begin())];
}

void ScoreKernel::TopKInto(size_t vertex, int k, TopkResult& out) {
  CHECK_GT(k, 0);
  const std::vector<int>& ids = *pool_;
  const double* row = Scores(vertex);
  const size_t count = ids.size();
  const size_t kk = std::min<size_t>(k, count);

  // Bounded-heap selection over the raw score row: keep the k best seen
  // so far in a heap whose front is the worst of them (ScoredBetter as
  // the heap's "less"), and reject most candidates with one double
  // compare against that threshold. ScoredBetter is a strict total order
  // (ids are unique), so the selected set and its sort_heap order are
  // exactly ComputeTopKReduced's partial_sort output -- bit-identical,
  // without materializing a pool-sized (id, score) array per vertex.
  std::vector<ScoredOption>& heap = arena_.scratch_;
  if (heap.capacity() < kk) {
    heap.reserve(kk);
    ++arena_.counters_.arena_allocations;
  }
  heap.clear();
  size_t c = 0;
  for (; c < kk; ++c) heap.push_back({ids[c], row[c]});
  std::make_heap(heap.begin(), heap.end(), ScoredBetter);
  for (; c < count; ++c) {
    const double s = row[c];
    const ScoredOption& worst = heap.front();
    if (s < worst.score) continue;  // fast path: strictly worse
    const ScoredOption candidate{ids[c], s};
    if (!ScoredBetter(candidate, worst)) continue;  // tie lost on id
    std::pop_heap(heap.begin(), heap.end(), ScoredBetter);
    heap.back() = candidate;
    std::push_heap(heap.begin(), heap.end(), ScoredBetter);
  }
  std::sort_heap(heap.begin(), heap.end(), ScoredBetter);
  if (out.entries.capacity() < kk) ++arena_.counters_.arena_allocations;
  out.entries.assign(heap.begin(), heap.end());
}

int ScoreKernel::RankOf(size_t vertex, int id) const {
  return RankFromScores(*pool_, Scores(vertex), id);
}

std::shared_ptr<const VertexScoreCache> ScoreKernel::MakeCache(
    const double* coords, size_t count,
    const std::vector<int>& surviving) const {
  auto cache = std::make_shared<VertexScoreCache>();
  cache->dim = dim_;
  cache->coords.assign(coords, coords + count * dim_);
  cache->candidates = surviving;
  cache->rows.reserve(count * surviving.size());
  const std::vector<int>& ids = *pool_;
  for (size_t v = 0; v < count; ++v) {
    const double* row = Scores(v);
    // `surviving` is a subsequence of the loaded pool; a two-pointer walk
    // picks out its columns.
    size_t c = 0;
    for (const int id : surviving) {
      while (c < ids.size() && ids[c] != id) ++c;
      DCHECK_LT(c, ids.size()) << "surviving pool not a subsequence";
      cache->rows.push_back(row[c]);
      ++c;
    }
  }
  return cache;
}

std::shared_ptr<const VertexScoreCache> ScoreKernel::MakeCache(
    const std::vector<Vec>& vertices,
    const std::vector<int>& surviving) const {
  std::vector<double> coords;
  coords.reserve(vertices.size() * dim_);
  for (const Vec& v : vertices) {
    coords.insert(coords.end(), v.begin(), v.end());
  }
  return MakeCache(coords.data(), vertices.size(), surviving);
}

}  // namespace toprr
