#include "geom/vec.h"

#include <gtest/gtest.h>

namespace toprr {
namespace {

TEST(VecTest, ConstructionAndAccess) {
  Vec v(3, 1.5);
  EXPECT_EQ(v.dim(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.5);
  EXPECT_DOUBLE_EQ(v[2], 1.5);
  v[1] = -2.0;
  EXPECT_DOUBLE_EQ(v[1], -2.0);
}

TEST(VecTest, InitializerList) {
  Vec v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.dim(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(VecTest, Arithmetic) {
  Vec a{1.0, 2.0};
  Vec b{3.0, -1.0};
  Vec sum = a + b;
  EXPECT_DOUBLE_EQ(sum[0], 4.0);
  EXPECT_DOUBLE_EQ(sum[1], 1.0);
  Vec diff = a - b;
  EXPECT_DOUBLE_EQ(diff[0], -2.0);
  EXPECT_DOUBLE_EQ(diff[1], 3.0);
  Vec scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled[0], 2.0);
  EXPECT_DOUBLE_EQ(scaled[1], 4.0);
  Vec divided = b / 2.0;
  EXPECT_DOUBLE_EQ(divided[0], 1.5);
}

TEST(VecTest, CompoundAssignment) {
  Vec a{1.0, 1.0};
  a += Vec{2.0, 3.0};
  EXPECT_DOUBLE_EQ(a[0], 3.0);
  a -= Vec{1.0, 1.0};
  EXPECT_DOUBLE_EQ(a[1], 3.0);
  a *= 0.5;
  EXPECT_DOUBLE_EQ(a[0], 1.0);
}

TEST(VecTest, DotProduct) {
  EXPECT_DOUBLE_EQ(Dot(Vec{1.0, 2.0, 3.0}, Vec{4.0, 5.0, 6.0}), 32.0);
  EXPECT_DOUBLE_EQ(Dot(Vec{1.0, 0.0}, Vec{0.0, 1.0}), 0.0);
}

TEST(VecTest, Norms) {
  Vec v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(v.Sum(), 7.0);
  EXPECT_DOUBLE_EQ(Vec({-3.0, 2.0}).MaxAbs(), 3.0);
}

TEST(VecTest, Distances) {
  Vec a{0.0, 0.0};
  Vec b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
}

TEST(VecTest, ApproxEqual) {
  EXPECT_TRUE(ApproxEqual(Vec{1.0, 2.0}, Vec{1.0 + 1e-10, 2.0}, 1e-9));
  EXPECT_FALSE(ApproxEqual(Vec{1.0, 2.0}, Vec{1.1, 2.0}, 1e-9));
  EXPECT_FALSE(ApproxEqual(Vec{1.0}, Vec{1.0, 2.0}, 1e-9));
}

TEST(VecTest, QuantizedCoords) {
  EXPECT_EQ(QuantizedCoords(Vec{0.5, -0.25}, 0.1),
            (std::vector<int64_t>{5, -3}));
  // Points within a fraction of the tolerance share a key.
  EXPECT_EQ(QuantizedCoords(Vec{0.3, 0.7}, 1e-9),
            QuantizedCoords(Vec{0.3 + 1e-11, 0.7 - 1e-11}, 1e-9));
  EXPECT_NE(QuantizedCoords(Vec{0.3, 0.7}, 1e-9),
            QuantizedCoords(Vec{0.3 + 1e-8, 0.7}, 1e-9));
}

TEST(VecTest, ToString) {
  EXPECT_EQ(Vec({1.0, 2.5}).ToString(), "(1, 2.5)");
}

TEST(VecTest, EqualityOperator) {
  EXPECT_TRUE(Vec({1.0, 2.0}) == Vec({1.0, 2.0}));
  EXPECT_FALSE(Vec({1.0, 2.0}) == Vec({1.0, 2.1}));
}

}  // namespace
}  // namespace toprr
