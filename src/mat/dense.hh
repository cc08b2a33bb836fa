/**
 * @file
 * Dense row-major matrix container.
 *
 * This is the substrate data structure the DBT transformation
 * consumes: a plain dense matrix of arbitrary (n, m) shape. The
 * container is templated on the element type so tests can use exact
 * integer arithmetic while simulations use doubles.
 */

#ifndef SAP_MAT_DENSE_HH
#define SAP_MAT_DENSE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace sap {

/**
 * True if the @p len elements at @p a and at @p b hold the same bits.
 * Unlike ==, a NaN matches a NaN of the same bits and +0 differs
 * from −0: the identity the plan digests hash (serve/fingerprint.hh).
 */
template <typename T>
bool
sameBits(const T *a, const T *b, Index len)
{
    if (len <= 0)
        return true;
    // A short run of words (a band row at w <= 8) compares inline:
    // there a library call costs more than the compare.
    if constexpr (sizeof(T) == sizeof(std::uint64_t)) {
        if (len <= 8) {
            std::uint64_t diff = 0;
            for (Index j = 0; j < len; ++j) {
                std::uint64_t x = 0, y = 0;
                std::memcpy(&x, a + j, sizeof x);
                std::memcpy(&y, b + j, sizeof y);
                diff |= x ^ y;
            }
            return diff == 0;
        }
    }
    return std::memcmp(a, b, static_cast<std::size_t>(len) * sizeof(T)) ==
           0;
}

/**
 * Row-major dense matrix.
 *
 * Invariants: rows() >= 0, cols() >= 0, storage size == rows*cols.
 */
template <typename T = Scalar>
class Dense
{
  public:
    /** Empty 0x0 matrix. */
    Dense() = default;

    /** @param rows,cols Shape; elements value-initialized to T{}. */
    Dense(Index rows, Index cols)
        : rows_(rows), cols_(cols),
          data_(static_cast<std::size_t>(rows * cols), T{})
    {
        SAP_ASSERT(rows >= 0 && cols >= 0, "negative dimension");
    }

    /** @param rows,cols Shape; @p elems the rows·cols elements,
     *  row-major, adopted as the storage (no copy, and no
     *  value-initialization pass). */
    Dense(Index rows, Index cols, std::vector<T> elems)
        : rows_(rows), cols_(cols), data_(std::move(elems))
    {
        SAP_ASSERT(rows >= 0 && cols >= 0 &&
                       data_.size() ==
                           static_cast<std::size_t>(rows * cols),
                   rows, "x", cols, " matrix over ", data_.size(),
                   " elements");
    }

    /** Shape accessors. */
    Index rows() const { return rows_; }
    Index cols() const { return cols_; }

    /** Element access with bounds assertion. */
    T &
    operator()(Index r, Index c)
    {
        SAP_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                   "index (", r, ",", c, ") out of ", rows_, "x", cols_);
        return data_[static_cast<std::size_t>(r * cols_ + c)];
    }

    /** @copydoc operator()(Index,Index) */
    const T &
    operator()(Index r, Index c) const
    {
        SAP_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                   "index (", r, ",", c, ") out of ", rows_, "x", cols_);
        return data_[static_cast<std::size_t>(r * cols_ + c)];
    }

    /** Raw storage access (row-major). */
    const std::vector<T> &data() const { return data_; }

    /** The rows()·cols() elements, row-major and contiguous: for
     *  loops that check their bounds once, not per element. */
    T *elems() { return data_.data(); }
    /** @copydoc elems() */
    const T *elems() const { return data_.data(); }

    /**
     * Copy elements (r, c0) … (r, c0 + len − 1) to @p out, reading
     * T{} past the matrix edges: the zero padding of §2.a, clipped
     * from the shape alone. Bounds are checked once per call, not
     * per element.
     *
     * @pre c0 >= 0, len >= 0, and @p out has room for len elements.
     */
    void
    gatherRow(Index r, Index c0, Index len, T *out) const
    {
        SAP_ASSERT(c0 >= 0 && len >= 0, "bad segment at column ", c0,
                   " of length ", len);
        Index inside = 0;
        if (r >= 0 && r < rows_ && c0 < cols_)
            inside = std::min(len, cols_ - c0);
        if (inside > 0) {
            const T *src =
                data_.data() + static_cast<std::size_t>(r * cols_ + c0);
            std::copy(src, src + inside, out);
        }
        std::fill(out + inside, out + len, T{});
    }

    /**
     * True if the @p len elements at @p stored hold bit for bit what
     * gatherRow(r, c0, len) would write there: the gather's compare
     * twin, which reads the row in place instead of copying it.
     *
     * @pre c0 >= 0 and len >= 0.
     */
    bool
    matchesGather(Index r, Index c0, Index len, const T *stored) const
    {
        SAP_ASSERT(c0 >= 0 && len >= 0, "bad segment at column ", c0,
                   " of length ", len);
        Index inside = 0;
        if (r >= 0 && r < rows_ && c0 < cols_)
            inside = std::min(len, cols_ - c0);
        bool same = inside == 0 ||
                    sameBits(data_.data() +
                                 static_cast<std::size_t>(r * cols_ + c0),
                             stored, inside);
        const T zero{};
        for (Index j = inside; j < len; ++j)
            same &= sameBits(&zero, stored + j, 1);
        return same;
    }

    /** @return a new matrix that is the transpose of this one. */
    Dense
    transposed() const
    {
        Dense t(cols_, rows_);
        for (Index r = 0; r < rows_; ++r)
            for (Index c = 0; c < cols_; ++c)
                t(c, r) = (*this)(r, c);
        return t;
    }

    /**
     * Copy of this matrix padded with T{} to the given shape.
     *
     * @pre new_rows >= rows() and new_cols >= cols().
     */
    Dense
    paddedTo(Index new_rows, Index new_cols) const
    {
        SAP_ASSERT(new_rows >= rows_ && new_cols >= cols_,
                   "padding must not shrink the matrix");
        Dense p(new_rows, new_cols);
        for (Index r = 0; r < rows_; ++r)
            for (Index c = 0; c < cols_; ++c)
                p(r, c) = (*this)(r, c);
        return p;
    }

    /** Copy of the leading submatrix of the given shape. */
    Dense
    topLeft(Index new_rows, Index new_cols) const
    {
        SAP_ASSERT(new_rows <= rows_ && new_cols <= cols_,
                   "topLeft must not grow the matrix");
        Dense s(new_rows, new_cols);
        for (Index r = 0; r < new_rows; ++r)
            for (Index c = 0; c < new_cols; ++c)
                s(r, c) = (*this)(r, c);
        return s;
    }

    /** Exact element-wise equality (use for integer workloads). */
    bool
    operator==(const Dense &o) const
    {
        return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
    }

    /** True if every element equals T{}. */
    bool
    isZero() const
    {
        for (const T &v : data_)
            if (v != T{})
                return false;
        return true;
    }

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<T> data_;
};

/** Same shape, and sameBits() over every element. */
template <typename T>
bool
sameBits(const Dense<T> &a, const Dense<T> &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           sameBits(a.data().data(), b.data().data(),
                    a.rows() * a.cols());
}

/** Largest absolute element-wise difference between two matrices. */
template <typename T>
double
maxAbsDiff(const Dense<T> &a, const Dense<T> &b)
{
    SAP_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
               "shape mismatch in maxAbsDiff");
    double worst = 0.0;
    for (Index r = 0; r < a.rows(); ++r) {
        for (Index c = 0; c < a.cols(); ++c) {
            double d = static_cast<double>(a(r, c)) -
                       static_cast<double>(b(r, c));
            if (d < 0)
                d = -d;
            if (d > worst)
                worst = d;
        }
    }
    return worst;
}

} // namespace sap

#endif // SAP_MAT_DENSE_HH
