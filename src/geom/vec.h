// Dynamic-dimension dense vector used throughout the library for options
// (points in option space) and weight vectors (points in preference space).
//
// Dimensions in this problem are small (d <= ~12), so a simple contiguous
// double buffer with value semantics is both fast and simple.
#ifndef TOPRR_GEOM_VEC_H_
#define TOPRR_GEOM_VEC_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"

namespace toprr {

/// A dense real vector of runtime dimension.
class Vec {
 public:
  Vec() = default;
  explicit Vec(size_t dim, double fill = 0.0) : data_(dim, fill) {}
  Vec(std::initializer_list<double> values) : data_(values) {}
  explicit Vec(std::vector<double> values) : data_(std::move(values)) {}

  size_t dim() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](size_t i) {
    DCHECK_LT(i, data_.size());
    return data_[i];
  }
  double operator[](size_t i) const {
    DCHECK_LT(i, data_.size());
    return data_[i];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  std::vector<double>& raw() { return data_; }
  const std::vector<double>& raw() const { return data_; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  Vec& operator+=(const Vec& other);
  Vec& operator-=(const Vec& other);
  Vec& operator*=(double s);
  Vec& operator/=(double s);

  friend Vec operator+(Vec a, const Vec& b) { return a += b; }
  friend Vec operator-(Vec a, const Vec& b) { return a -= b; }
  friend Vec operator*(Vec a, double s) { return a *= s; }
  friend Vec operator*(double s, Vec a) { return a *= s; }
  friend Vec operator/(Vec a, double s) { return a /= s; }
  friend bool operator==(const Vec& a, const Vec& b) {
    return a.data_ == b.data_;
  }

  /// Euclidean norm.
  double Norm() const;
  /// Squared Euclidean norm.
  double SquaredNorm() const;
  /// Sum of components.
  double Sum() const;
  /// L-infinity norm.
  double MaxAbs() const;

  std::string ToString(int digits = 6) const;

 private:
  std::vector<double> data_;
};

/// Inner product over raw buffers, accumulated in index order. The one
/// dot-product kernel of the library: Dot(Vec, Vec), Hyperplane::Eval,
/// and the batched flat-geometry sweeps all route through it, so every
/// caller sees bit-identical accumulation.
inline double DotSpan(const double* a, const double* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// Inner product; dimensions must match.
double Dot(const Vec& a, const Vec& b);

/// Squared Euclidean distance.
double SquaredDistance(const Vec& a, const Vec& b);

/// Euclidean distance.
double Distance(const Vec& a, const Vec& b);

/// True if every |a[i]-b[i]| <= tol.
bool ApproxEqual(const Vec& a, const Vec& b, double tol);

/// Quantized coordinate key for merging near-identical points:
/// llround(v[i] / tol) per coordinate.
std::vector<int64_t> QuantizedCoords(const Vec& v, double tol);

}  // namespace toprr

#endif  // TOPRR_GEOM_VEC_H_
