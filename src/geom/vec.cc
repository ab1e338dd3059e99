#include "geom/vec.h"

#include <cmath>
#include <sstream>

namespace toprr {

Vec& Vec::operator+=(const Vec& other) {
  DCHECK_EQ(dim(), other.dim());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Vec& Vec::operator-=(const Vec& other) {
  DCHECK_EQ(dim(), other.dim());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Vec& Vec::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Vec& Vec::operator/=(double s) {
  DCHECK_NE(s, 0.0);
  for (double& v : data_) v /= s;
  return *this;
}

double Vec::Norm() const { return std::sqrt(SquaredNorm()); }

double Vec::SquaredNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return acc;
}

double Vec::Sum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

double Vec::MaxAbs() const {
  double acc = 0.0;
  for (double v : data_) acc = std::max(acc, std::fabs(v));
  return acc;
}

std::string Vec::ToString(int digits) const {
  std::ostringstream out;
  out.precision(digits);
  out << "(";
  for (size_t i = 0; i < data_.size(); ++i) {
    if (i > 0) out << ", ";
    out << data_[i];
  }
  out << ")";
  return out.str();
}

double Dot(const Vec& a, const Vec& b) {
  DCHECK_EQ(a.dim(), b.dim());
  return DotSpan(a.data(), b.data(), a.dim());
}

double SquaredDistance(const Vec& a, const Vec& b) {
  DCHECK_EQ(a.dim(), b.dim());
  double acc = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) {
    const double diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

double Distance(const Vec& a, const Vec& b) {
  return std::sqrt(SquaredDistance(a, b));
}

bool ApproxEqual(const Vec& a, const Vec& b, double tol) {
  if (a.dim() != b.dim()) return false;
  for (size_t i = 0; i < a.dim(); ++i) {
    if (std::fabs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

std::vector<int64_t> QuantizedCoords(const Vec& v, double tol) {
  std::vector<int64_t> key(v.dim());
  for (size_t i = 0; i < v.dim(); ++i) {
    key[i] = static_cast<int64_t>(std::llround(v[i] / tol));
  }
  return key;
}

}  // namespace toprr
