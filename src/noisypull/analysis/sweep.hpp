// Parameter grid helpers for the bench harness.
#pragma once

#include <cstdint>
#include <vector>

namespace noisypull {

// {lo, lo·factor, lo·factor², ...} up to and including the last value ≤ hi
// (each value rounded to an integer, duplicates removed).  factor > 1.
std::vector<std::uint64_t> geometric_grid(std::uint64_t lo, std::uint64_t hi,
                                          double factor = 2.0);

// `points` evenly spaced values covering [lo, hi] inclusive; points ≥ 2.
std::vector<double> linear_grid(double lo, double hi, std::size_t points);

}  // namespace noisypull
