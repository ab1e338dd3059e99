// In-memory option dataset: n options ("products") with d continuous
// attributes each, stored row-major. Larger attribute values are assumed
// preferable on every attribute (paper Sec. 3.1), and benchmark datasets
// live in the unit option space O = [0,1]^d.
#ifndef TOPRR_DATA_DATASET_H_
#define TOPRR_DATA_DATASET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "geom/vec.h"

namespace toprr {

/// A flat, row-major table of options.
class Dataset {
 public:
  Dataset() = default;
  Dataset(size_t n, size_t d) : n_(n), d_(d), values_(n * d, 0.0) {}

  /// Builds from explicit rows (all of dimension d).
  static Dataset FromRows(const std::vector<Vec>& rows);

  size_t size() const { return n_; }
  size_t dim() const { return d_; }
  bool empty() const { return n_ == 0; }

  double At(size_t row, size_t col) const {
    DCHECK_LT(row, n_);
    DCHECK_LT(col, d_);
    return values_[row * d_ + col];
  }
  double& At(size_t row, size_t col) {
    DCHECK_LT(row, n_);
    DCHECK_LT(col, d_);
    return values_[row * d_ + col];
  }

  /// Raw pointer to the row (d contiguous doubles).
  const double* Row(size_t row) const {
    DCHECK_LT(row, n_);
    return values_.data() + row * d_;
  }

  /// Raw pointer to the whole row-major table (n * d doubles). Bulk
  /// consumers (the SoA gather of topk/score_kernel.cc) read through this
  /// to avoid a per-row bounds check in debug builds.
  const double* RawValues() const { return values_.data(); }

  /// Copies row `row` into a Vec.
  Vec Option(size_t row) const;

  /// Appends a row; dimension must match (or sets it on the first row).
  void Append(const Vec& option);

  /// Min-max normalizes every attribute into [0, 1] in place. Constant
  /// attributes map to 0.5. Returns per-column (min, max) before scaling.
  std::vector<std::pair<double, double>> NormalizeUnit();

  /// The score w . option for a full d-dimensional weight vector.
  double Score(size_t row, const Vec& w) const;

  std::string DebugString(size_t max_rows = 10) const;

 private:
  size_t n_ = 0;
  size_t d_ = 0;
  std::vector<double> values_;
};

/// A non-owning, trivially copyable read view of a row-major option table.
///
/// The solver stack (skyband / r-skyband filters, the partition engine,
/// result assembly) reads rows through this view instead of a concrete
/// Dataset, so the same code serves both the contiguous Dataset storage
/// and the chunked copy-on-write storage of DatasetSnapshot
/// (data/snapshot.h). A `const Dataset&` converts implicitly, so existing
/// call sites keep compiling unchanged.
///
/// Row ids address physical rows: a chunked snapshot may carry tombstoned
/// (deleted) rows that are still physically present -- callers restrict
/// themselves to live ids (DatasetSnapshot::live_ids()); the view itself
/// does not filter.
///
/// The viewed storage (Dataset, or snapshot chunk table) must outlive the
/// view. Views are values: copy them freely, never point at them.
class DatasetView {
 public:
  DatasetView() = default;

  // Implicit by design: the whole-table view of a contiguous Dataset.
  // NOLINTNEXTLINE(google-explicit-constructor)
  DatasetView(const Dataset& data)
      : n_(data.size()), d_(data.dim()), contig_(data.RawValues()) {}

  /// Chunked table: bases[c] is the first row of chunk c; every chunk
  /// holds (1 << chunk_shift) rows of d doubles (the last may be
  /// partial). `bases` must outlive the view.
  DatasetView(size_t n, size_t d, const double* const* bases,
              unsigned chunk_shift)
      : n_(n),
        d_(d),
        bases_(bases),
        shift_(chunk_shift),
        mask_((size_t{1} << chunk_shift) - 1) {}

  size_t size() const { return n_; }
  size_t dim() const { return d_; }
  bool empty() const { return n_ == 0; }

  /// Raw pointer to the row (d contiguous doubles). The chunk branch is
  /// perfectly predicted within one solve (a view is one or the other),
  /// so the hot scans cost the same as the direct Dataset accessors.
  /// It tests `bases_`, which only a chunked view sets: a contiguous
  /// view then never reaches the table lookup, even when inlined where
  /// the compiler cannot prove its `contig_` non-null.
  const double* Row(size_t row) const {
    DCHECK_LT(row, n_);
    if (bases_ == nullptr) return contig_ + row * d_;
    return bases_[row >> shift_] + (row & mask_) * d_;
  }

  double At(size_t row, size_t col) const {
    DCHECK_LT(col, d_);
    return Row(row)[col];
  }

  /// The score w . option for a full d-dimensional weight vector.
  double Score(size_t row, const Vec& w) const {
    DCHECK_EQ(w.dim(), d_);
    const double* p = Row(row);
    double s = 0.0;
    for (size_t j = 0; j < d_; ++j) s += p[j] * w[j];
    return s;
  }

 private:
  size_t n_ = 0;
  size_t d_ = 0;
  const double* contig_ = nullptr;         // contiguous table, or null
  const double* const* bases_ = nullptr;   // per-chunk row-0 pointers, or
                                           // null for a contiguous view
  unsigned shift_ = 0;
  size_t mask_ = 0;
};

}  // namespace toprr

#endif  // TOPRR_DATA_DATASET_H_
