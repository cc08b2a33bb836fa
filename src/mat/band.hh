/**
 * @file
 * Band matrix container.
 *
 * The transformed matrices Ā and B̄ of the paper are band matrices
 * whose bandwidth equals the systolic array size w. The container
 * stores only the band diagonals, addressed by (row, offset) where
 * offset = col - row, offset in [-sub(), +super()].
 */

#ifndef SAP_MAT_BAND_HH
#define SAP_MAT_BAND_HH

#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "mat/dense.hh"

namespace sap {

/**
 * Rectangular band matrix with `sub` sub-diagonals and `super`
 * super-diagonals (total bandwidth sub + super + 1).
 *
 * Elements outside the band read as T{} and must not be written.
 */
template <typename T = Scalar>
class Band
{
  public:
    Band() = default;

    /**
     * @param rows,cols Logical matrix shape.
     * @param sub Number of sub-diagonals (offsets -1..-sub).
     * @param super Number of super-diagonals (offsets +1..+super).
     */
    Band(Index rows, Index cols, Index sub, Index super)
        : rows_(rows), cols_(cols), sub_(sub), super_(super),
          width_(sub + super + 1),
          data_(static_cast<std::size_t>(rows * width_), T{})
    {
        SAP_ASSERT(rows >= 0 && cols >= 0, "negative dimension");
        SAP_ASSERT(sub >= 0 && super >= 0, "negative band extent");
    }

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    /** Number of sub-diagonals. */
    Index sub() const { return sub_; }
    /** Number of super-diagonals. */
    Index super() const { return super_; }
    /** Total bandwidth = sub + super + 1. */
    Index bandwidth() const { return width_; }

    /** True if (r, c) is inside the matrix and inside the band. */
    bool
    inBand(Index r, Index c) const
    {
        if (r < 0 || r >= rows_ || c < 0 || c >= cols_)
            return false;
        Index off = c - r;
        return off >= -sub_ && off <= super_;
    }

    /** Read element (r, c); zero outside the band. */
    T
    at(Index r, Index c) const
    {
        SAP_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                   "index (", r, ",", c, ") out of ", rows_, "x", cols_);
        Index off = c - r;
        if (off < -sub_ || off > super_)
            return T{};
        return data_[slot(r, off)];
    }

    /** Mutable reference to an in-band element. */
    T &
    ref(Index r, Index c)
    {
        SAP_ASSERT(inBand(r, c), "(", r, ",", c, ") outside band");
        return data_[slot(r, c - r)];
    }

    /**
     * Storage of row @p r: bandwidth() slots holding columns
     * r − sub() … r + super() in order. Rows are stored back to back,
     * so rowPtr(r) + bandwidth() is row r + 1. The row's bounds are
     * asserted here once, not per element. Slots whose column lies
     * outside the matrix read as T{} and must stay T{}.
     */
    T *
    rowPtr(Index r)
    {
        SAP_ASSERT(r >= 0 && r < rows_, "row ", r, " out of ", rows_);
        return data_.data() + slot(r, -sub_);
    }

    /** @copydoc rowPtr(Index) */
    const T *
    rowPtr(Index r) const
    {
        SAP_ASSERT(r >= 0 && r < rows_, "row ", r, " out of ", rows_);
        return data_.data() + slot(r, -sub_);
    }

    /** Same shape, same extents and every stored slot equal. */
    bool
    operator==(const Band &o) const
    {
        return rows_ == o.rows_ && cols_ == o.cols_ && sub_ == o.sub_ &&
               super_ == o.super_ && data_ == o.data_;
    }

    /** Expand to a dense matrix (zeros outside the band). */
    Dense<T>
    toDense() const
    {
        Dense<T> d(rows_, cols_);
        for (Index r = 0; r < rows_; ++r) {
            for (Index off = -sub_; off <= super_; ++off) {
                Index c = r + off;
                if (c >= 0 && c < cols_)
                    d(r, c) = data_[slot(r, off)];
            }
        }
        return d;
    }

    /**
     * True if every in-matrix band position holds a nonzero value.
     *
     * This is the paper's "the transformed matrix band is filled (no
     * empty position)" property; meaningful only for workloads whose
     * generator guarantees nonzero entries.
     */
    bool
    bandCompletelyFilled() const
    {
        for (Index r = 0; r < rows_; ++r) {
            for (Index off = -sub_; off <= super_; ++off) {
                Index c = r + off;
                if (c < 0 || c >= cols_)
                    continue;
                if (data_[slot(r, off)] == T{})
                    return false;
            }
        }
        return true;
    }

    /** Count of in-matrix band positions (the array work slots). */
    Index
    bandPositionCount() const
    {
        Index count = 0;
        for (Index r = 0; r < rows_; ++r) {
            for (Index off = -sub_; off <= super_; ++off) {
                Index c = r + off;
                if (c >= 0 && c < cols_)
                    ++count;
            }
        }
        return count;
    }

  private:
    /** Storage slot for (row, offset). */
    std::size_t
    slot(Index r, Index off) const
    {
        return static_cast<std::size_t>(r * width_ + (off + sub_));
    }

    Index rows_ = 0;
    Index cols_ = 0;
    Index sub_ = 0;
    Index super_ = 0;
    Index width_ = 1;
    std::vector<T> data_;
};

} // namespace sap

#endif // SAP_MAT_BAND_HH
