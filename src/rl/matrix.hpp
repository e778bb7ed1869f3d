#pragma once
// Dense row-major matrix used by the neural-network substrate.
//
// The Q-networks in this reproduction are small MLPs (thousands of weights),
// so a straightforward double-precision implementation is both fast enough
// (micro-benchmarked in bench_overhead) and makes the finite-difference
// gradient tests in tests/rl exact to ~1e-7.

#include <cstddef>
#include <span>
#include <vector>

namespace lotus::rl {

class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

    [[nodiscard]] double& at(std::size_t r, std::size_t c);
    [[nodiscard]] double at(std::size_t r, std::size_t c) const;

    /// Unchecked element access (hot paths).
    [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    [[nodiscard]] std::span<double> flat() noexcept { return data_; }
    [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }

    [[nodiscard]] std::span<double> row(std::size_t r) noexcept;
    [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept;

    /// Reshape in place to rows x cols, filling every element; reuses the
    /// underlying capacity (hot-path scratch matrices reallocate only to
    /// grow). Throws like the constructor on a zero dimension.
    void resize(std::size_t rows, std::size_t cols, double fill = 0.0);

    /// y = A[0:out, 0:in] * x[0:in] + b[0:out]; the slicing is what makes the
    /// layer "slimmable" (only the leading sub-matrix participates).
    static void slice_matvec(const Matrix& a, std::span<const double> x,
                             std::span<const double> b, std::span<double> y,
                             std::size_t out, std::size_t in) noexcept;

    /// Y[k, 0:out] = A[0:out, 0:in] * X[k, 0:in] + b[0:out] for every row
    /// k < batch. Runs the active SIMD build of kernels::Isa::matmul: A is
    /// packed 8 output rows at a time into `panel` (resized to 8 * in), SIMD
    /// lanes span those rows, and every output element's reduction runs over
    /// c in ascending order starting from b[r] -- each result is
    /// bit-identical to `batch` separate slice_matvec calls. X and Y may have
    /// more columns than in/out; only the leading slices are touched.
    static void slice_matmul(const Matrix& a, const Matrix& x, std::span<const double> b,
                             Matrix& y, std::size_t out, std::size_t in,
                             std::size_t batch, std::vector<double>& panel);

    /// x_grad[0:in] = A[0:out, 0:in]^T * y_grad[0:out].
    static void slice_matvec_transposed(const Matrix& a, std::span<const double> y_grad,
                                        std::span<double> x_grad,
                                        std::size_t out, std::size_t in) noexcept;

    /// grad[0:out, 0:in] += y_grad[0:out] (outer) x[0:in].
    static void slice_outer_accumulate(Matrix& grad, std::span<const double> y_grad,
                                       std::span<const double> x,
                                       std::size_t out, std::size_t in) noexcept;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace lotus::rl
