#include "noisypull/analysis/sweep.hpp"

#include <gtest/gtest.h>

namespace noisypull {
namespace {

TEST(GeometricGrid, PowersOfTwo) {
  EXPECT_EQ(geometric_grid(1, 16, 2.0),
            (std::vector<std::uint64_t>{1, 2, 4, 8, 16}));
}

TEST(GeometricGrid, NonIntegerFactorDeduplicates) {
  const auto g = geometric_grid(1, 4, 1.3);
  for (std::size_t i = 1; i < g.size(); ++i) EXPECT_GT(g[i], g[i - 1]);
  EXPECT_EQ(g.front(), 1u);
  EXPECT_GE(g.back(), 3u);
}

TEST(GeometricGrid, SinglePoint) {
  EXPECT_EQ(geometric_grid(5, 5, 2.0), (std::vector<std::uint64_t>{5}));
}

TEST(GeometricGrid, Validation) {
  EXPECT_THROW(geometric_grid(0, 10), std::invalid_argument);
  EXPECT_THROW(geometric_grid(10, 5), std::invalid_argument);
  EXPECT_THROW(geometric_grid(1, 10, 1.0), std::invalid_argument);
}

TEST(LinearGrid, CoversEndpoints) {
  const auto g = linear_grid(0.0, 0.4, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 0.4);
  EXPECT_NEAR(g[2], 0.2, 1e-12);
}

TEST(LinearGrid, Validation) {
  EXPECT_THROW(linear_grid(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(linear_grid(1, 0, 3), std::invalid_argument);
}

}  // namespace
}  // namespace noisypull
