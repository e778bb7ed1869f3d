#include "rl/matrix.hpp"

#include <stdexcept>

#include "prof/profiler.hpp"
#include "rl/kernels.hpp"

namespace lotus::rl {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    if (rows == 0 || cols == 0) {
        throw std::invalid_argument("Matrix: zero dimension");
    }
}

double& Matrix::at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
}

void Matrix::resize(std::size_t rows, std::size_t cols, double fill) {
    if (rows == 0 || cols == 0) {
        throw std::invalid_argument("Matrix::resize: zero dimension");
    }
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
}

void Matrix::slice_matvec(const Matrix& a, std::span<const double> x,
                          std::span<const double> b, std::span<double> y,
                          std::size_t out, std::size_t in) noexcept {
    LOTUS_PROF_COUNT("rl.matvec_calls", 1);
    for (std::size_t r = 0; r < out; ++r) {
        const double* wrow = a.data_.data() + r * a.cols_;
        double acc = b[r];
        for (std::size_t c = 0; c < in; ++c) acc += wrow[c] * x[c];
        y[r] = acc;
    }
}

void Matrix::slice_matmul(const Matrix& a, const Matrix& x, std::span<const double> b,
                          Matrix& y, std::size_t out, std::size_t in, std::size_t batch,
                          std::vector<double>& panel) {
    LOTUS_PROF_COUNT("rl.matmul_calls", 1);
    LOTUS_PROF_COUNT("rl.matmul_rows", batch);
    panel.resize(8 * in);
    kernels::active().matmul(a.data_.data(), a.cols_, b.data(), x.data_.data(), x.cols_,
                             y.data_.data(), y.cols_, out, in, batch, panel.data());
}

void Matrix::slice_matvec_transposed(const Matrix& a, std::span<const double> y_grad,
                                     std::span<double> x_grad,
                                     std::size_t out, std::size_t in) noexcept {
    for (std::size_t c = 0; c < in; ++c) x_grad[c] = 0.0;
    for (std::size_t r = 0; r < out; ++r) {
        const double g = y_grad[r];
        if (g == 0.0) continue;
        const double* wrow = a.data_.data() + r * a.cols_;
        for (std::size_t c = 0; c < in; ++c) x_grad[c] += g * wrow[c];
    }
}

void Matrix::slice_outer_accumulate(Matrix& grad, std::span<const double> y_grad,
                                    std::span<const double> x,
                                    std::size_t out, std::size_t in) noexcept {
    for (std::size_t r = 0; r < out; ++r) {
        const double g = y_grad[r];
        if (g == 0.0) continue;
        double* grow = grad.data_.data() + r * grad.cols_;
        for (std::size_t c = 0; c < in; ++c) grow[c] += g * x[c];
    }
}

} // namespace lotus::rl
