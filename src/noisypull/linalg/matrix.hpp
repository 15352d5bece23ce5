// Small dense matrices over double.
//
// Section 4 of the paper manipulates |Σ|×|Σ| stochastic matrices (|Σ| ≤ 4 in
// the protocols, arbitrary d in the theory).  This module provides exactly
// the operations the proofs use: products, the ∞-operator norm (Definition
// 10), and the (weak-)stochasticity predicates of Definition 9.  It is a
// deliberately small row-major value type — no expression templates, no
// views — because every matrix in this codebase is tiny.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace noisypull {

class Matrix {
 public:
  Matrix() = default;

  // rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  // Square matrix from a row-major initializer list; the list's size must be
  // a perfect square.
  Matrix(std::initializer_list<double> row_major);

  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool is_square() const noexcept { return rows_ == cols_; }

  double& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }

  // Checked element access (throws std::invalid_argument out of range).
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  Matrix operator*(const Matrix& rhs) const;
  // *this = a · b, reusing this matrix's storage: no allocation once it has
  // held a product as large.  Neither operand may be *this.
  void assign_product(const Matrix& a, const Matrix& b);
  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix operator*(double scalar) const;

  // ∞-operator norm: max over rows of the row's absolute sum (Eq. (4)).
  double inf_norm() const noexcept;

  // Largest absolute entry difference to another matrix of the same shape.
  double max_abs_diff(const Matrix& rhs) const;

  // Definition 9: every row sums to 1 (within tol).
  bool is_weakly_stochastic(double tol = 1e-9) const noexcept;

  // Definition 9: weakly stochastic and entrywise >= -tol.
  bool is_stochastic(double tol = 1e-9) const noexcept;

  const std::vector<double>& data() const noexcept { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace noisypull
