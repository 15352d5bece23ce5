#include "noisypull/linalg/matrix.hpp"

#include <cmath>

#include "noisypull/common/check.hpp"

namespace noisypull {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {
  NOISYPULL_CHECK(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

Matrix::Matrix(std::initializer_list<double> row_major) {
  const auto n = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(row_major.size()))));
  NOISYPULL_CHECK(n > 0 && n * n == row_major.size(),
                  "initializer list size must be a perfect square");
  rows_ = cols_ = n;
  data_.assign(row_major.begin(), row_major.end());
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t i, std::size_t j) {
  NOISYPULL_CHECK(i < rows_ && j < cols_, "matrix index out of range");
  return (*this)(i, j);
}

double Matrix::at(std::size_t i, std::size_t j) const {
  NOISYPULL_CHECK(i < rows_ && j < cols_, "matrix index out of range");
  return (*this)(i, j);
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  Matrix out;
  out.assign_product(*this, rhs);
  return out;
}

void Matrix::assign_product(const Matrix& a, const Matrix& b) {
  NOISYPULL_CHECK(a.cols_ == b.rows_, "matrix product shape mismatch");
  NOISYPULL_CHECK(a.rows_ > 0 && b.cols_ > 0,
                  "matrix dimensions must be positive");
  NOISYPULL_CHECK(this != &a && this != &b,
                  "matrix product cannot overwrite an operand");
  rows_ = a.rows_;
  cols_ = b.cols_;
  data_.assign(rows_ * cols_, 0.0);
  for (std::size_t i = 0; i < a.rows_; ++i) {
    for (std::size_t k = 0; k < a.cols_; ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols_; ++j) {
        (*this)(i, j) += aik * b(k, j);
      }
    }
  }
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  NOISYPULL_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                  "matrix sum shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  NOISYPULL_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                  "matrix difference shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= scalar;
  return out;
}

double Matrix::inf_norm() const noexcept {
  double best = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) row += std::fabs((*this)(i, j));
    if (row > best) best = row;
  }
  return best;
}

double Matrix::max_abs_diff(const Matrix& rhs) const {
  NOISYPULL_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                  "matrix diff shape mismatch");
  double best = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    best = std::max(best, std::fabs(data_[i] - rhs.data_[i]));
  }
  return best;
}

bool Matrix::is_weakly_stochastic(double tol) const noexcept {
  for (std::size_t i = 0; i < rows_; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) row += (*this)(i, j);
    // NaN-rejecting form: a NaN entry makes `row` NaN, which must fail.
    if (!(std::fabs(row - 1.0) <= tol)) return false;
  }
  return true;
}

bool Matrix::is_stochastic(double tol) const noexcept {
  for (double v : data_) {
    if (!(v >= -tol)) return false;  // NaN-rejecting form
  }
  return is_weakly_stochastic(tol);
}

}  // namespace noisypull
