#include "matrix.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace vmargin::stats
{

using util::panicf;

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix
Matrix::fromRows(const std::vector<Vector> &rows)
{
    if (rows.empty())
        return Matrix();
    Matrix m(rows.size(), rows.front().size());
    for (size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].size() != m.cols_)
            panicf("Matrix::fromRows: row ", r, " has ",
                   rows[r].size(), " columns, expected ", m.cols_);
        for (size_t c = 0; c < m.cols_; ++c)
            m(r, c) = rows[r][c];
    }
    return m;
}

Matrix
Matrix::identity(size_t n)
{
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

double &
Matrix::operator()(size_t r, size_t c)
{
    if (r >= rows_ || c >= cols_)
        panicf("Matrix: access (", r, ",", c, ") in ", rows_, "x",
               cols_);
    return data_[r * cols_ + c];
}

double
Matrix::operator()(size_t r, size_t c) const
{
    if (r >= rows_ || c >= cols_)
        panicf("Matrix: access (", r, ",", c, ") in ", rows_, "x",
               cols_);
    return data_[r * cols_ + c];
}

double *
Matrix::rowData(size_t r)
{
    if (r >= rows_)
        panicf("Matrix: row ", r, " in ", rows_, "x", cols_);
    return data_.data() + r * cols_;
}

const double *
Matrix::rowData(size_t r) const
{
    if (r >= rows_)
        panicf("Matrix: row ", r, " in ", rows_, "x", cols_);
    return data_.data() + r * cols_;
}

Vector
Matrix::row(size_t r) const
{
    Vector out(cols_);
    for (size_t c = 0; c < cols_; ++c)
        out[c] = (*this)(r, c);
    return out;
}

Vector
Matrix::col(size_t c) const
{
    Vector out(rows_);
    for (size_t r = 0; r < rows_; ++r)
        out[r] = (*this)(r, c);
    return out;
}

void
Matrix::setRow(size_t r, const Vector &values)
{
    if (values.size() != cols_)
        panicf("Matrix::setRow: ", values.size(), " values for ",
               cols_, " columns");
    for (size_t c = 0; c < cols_; ++c)
        (*this)(r, c) = values[c];
}

Matrix
Matrix::transposed() const
{
    Matrix t(cols_, rows_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            t(c, r) = (*this)(r, c);
    return t;
}

Matrix
Matrix::multiply(const Matrix &other) const
{
    if (cols_ != other.rows_)
        panicf("Matrix::multiply: ", rows_, "x", cols_, " * ",
               other.rows_, "x", other.cols_);
    Matrix out(rows_, other.cols_);
    for (size_t r = 0; r < rows_; ++r) {
        const double *lhs = rowData(r);
        double *dst = out.rowData(r);
        for (size_t k = 0; k < cols_; ++k) {
            const double v = lhs[k];
            if (v == 0.0)
                continue;
            const double *rhs = other.rowData(k);
            for (size_t c = 0; c < other.cols_; ++c)
                dst[c] += v * rhs[c];
        }
    }
    return out;
}

Vector
Matrix::multiply(const Vector &v) const
{
    if (v.size() != cols_)
        panicf("Matrix::multiply: vector size ", v.size(),
               " != cols ", cols_);
    Vector out(rows_, 0.0);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            out[r] += (*this)(r, c) * v[c];
    return out;
}

Matrix
Matrix::selectColumns(const std::vector<size_t> &indices) const
{
    Matrix out(rows_, indices.size());
    for (size_t c = 0; c < indices.size(); ++c) {
        if (indices[c] >= cols_)
            panicf("Matrix::selectColumns: index ", indices[c],
                   " out of ", cols_);
        for (size_t r = 0; r < rows_; ++r)
            out(r, c) = (*this)(r, indices[c]);
    }
    return out;
}

Matrix
Matrix::withInterceptColumn() const
{
    Matrix out(rows_, cols_ + 1);
    for (size_t r = 0; r < rows_; ++r) {
        out(r, 0) = 1.0;
        for (size_t c = 0; c < cols_; ++c)
            out(r, c + 1) = (*this)(r, c);
    }
    return out;
}

double
dot(const Vector &a, const Vector &b)
{
    if (a.size() != b.size())
        panicf("dot: size mismatch ", a.size(), " vs ", b.size());
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        sum += a[i] * b[i];
    return sum;
}

double
norm(const Vector &v)
{
    return std::sqrt(dot(v, v));
}

Vector
subtract(const Vector &a, const Vector &b)
{
    if (a.size() != b.size())
        panicf("subtract: size mismatch ", a.size(), " vs ", b.size());
    Vector out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] - b[i];
    return out;
}

Vector
add(const Vector &a, const Vector &b)
{
    if (a.size() != b.size())
        panicf("add: size mismatch ", a.size(), " vs ", b.size());
    Vector out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] + b[i];
    return out;
}

Vector
scale(const Vector &v, double s)
{
    Vector out(v.size());
    for (size_t i = 0; i < v.size(); ++i)
        out[i] = v[i] * s;
    return out;
}

Vector
solveLinearSystem(Matrix a, Vector b)
{
    const size_t n = a.rows();
    if (a.cols() != n || b.size() != n)
        panicf("solveLinearSystem: need square system, got ",
               a.rows(), "x", a.cols(), " with b of ", b.size());

    // Row table: pivoting swaps row pointers rather than row
    // contents. Every column index below is < n == a.cols().
    std::vector<double *> row(n);
    for (size_t r = 0; r < n; ++r)
        row[r] = a.rowData(r);

    for (size_t k = 0; k < n; ++k) {
        // Partial pivoting: bring the largest remaining |pivot| up.
        size_t pivot = k;
        for (size_t r = k + 1; r < n; ++r)
            if (std::fabs(row[r][k]) > std::fabs(row[pivot][k]))
                pivot = r;
        if (std::fabs(row[pivot][k]) < 1e-12)
            panicf("solveLinearSystem: singular matrix at column ", k);
        if (pivot != k) {
            std::swap(row[k], row[pivot]);
            std::swap(b[k], b[pivot]);
        }
        const double *pivot_row = row[k];
        for (size_t r = k + 1; r < n; ++r) {
            double *target = row[r];
            const double factor = target[k] / pivot_row[k];
            if (factor == 0.0)
                continue;
            for (size_t c = k; c < n; ++c)
                target[c] -= factor * pivot_row[c];
            b[r] -= factor * b[k];
        }
    }

    Vector x(n, 0.0);
    for (size_t ri = n; ri-- > 0;) {
        const double *coeffs = row[ri];
        double sum = b[ri];
        for (size_t c = ri + 1; c < n; ++c)
            sum -= coeffs[c] * x[c];
        x[ri] = sum / coeffs[ri];
    }
    return x;
}

Vector
leastSquares(const Matrix &a, const Vector &b)
{
    const size_t m = a.rows();
    const size_t n = a.cols();
    if (b.size() != m)
        panicf("leastSquares: b size ", b.size(), " != rows ", m);
    if (m < n)
        panicf("leastSquares: under-determined system ", m, "x", n);

    // Householder QR applied in place to working copies.
    Matrix r = a;
    Vector qtb = b;
    std::vector<bool> deficient(n, false);

    for (size_t k = 0; k < n; ++k) {
        // Column norm below the diagonal.
        double sigma = 0.0;
        for (size_t i = k; i < m; ++i)
            sigma += r(i, k) * r(i, k);
        sigma = std::sqrt(sigma);
        if (sigma < 1e-12) {
            // Rank-deficient column: skip; coefficient forced to 0.
            deficient[k] = true;
            continue;
        }
        const double alpha = r(k, k) >= 0.0 ? -sigma : sigma;
        Vector v(m, 0.0);
        v[k] = r(k, k) - alpha;
        for (size_t i = k + 1; i < m; ++i)
            v[i] = r(i, k);
        const double vtv = dot(v, v);
        if (vtv < 1e-24) {
            deficient[k] = true;
            continue;
        }
        // Apply the reflector to R.
        for (size_t c = k; c < n; ++c) {
            double proj = 0.0;
            for (size_t i = k; i < m; ++i)
                proj += v[i] * r(i, c);
            const double f = 2.0 * proj / vtv;
            for (size_t i = k; i < m; ++i)
                r(i, c) -= f * v[i];
        }
        // And to the right-hand side.
        double proj = 0.0;
        for (size_t i = k; i < m; ++i)
            proj += v[i] * qtb[i];
        const double f = 2.0 * proj / vtv;
        for (size_t i = k; i < m; ++i)
            qtb[i] -= f * v[i];
    }

    // Back substitution on the upper-triangular part.
    Vector x(n, 0.0);
    for (size_t ki = n; ki-- > 0;) {
        if (deficient[ki] || std::fabs(r(ki, ki)) < 1e-12) {
            x[ki] = 0.0;
            continue;
        }
        double sum = qtb[ki];
        for (size_t c = ki + 1; c < n; ++c)
            sum -= r(ki, c) * x[c];
        x[ki] = sum / r(ki, ki);
    }
    return x;
}

} // namespace vmargin::stats
