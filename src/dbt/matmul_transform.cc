#include "dbt/matmul_transform.hh"

#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/math_util.hh"
#include "mat/triangular.hh"

namespace sap {

namespace {

/**
 * The w×w block (kr, kc) of @p band restricted to @p part, zero
 * where the block leaves the matrix (the tail's missing last row
 * and column).
 */
Dense<Scalar>
bandBlock(const MappedBand &band, Index w, Index kr, Index kc,
          TriPart part)
{
    Dense<Scalar> blk(w, w);
    for (Index i = 0; i < w; ++i) {
        for (Index j = 0; j < w; ++j) {
            const Index row = kr * w + i, col = kc * w + j;
            if (inTriPart(part, i, j) && row < band.rows() &&
                col < band.cols())
                blk(i, j) = band.at(row, col);
        }
    }
    return blk;
}

/**
 * Placement: every Ā diagonal block (the tail's U' included) of
 * @p map maps U^A of its provenance block, worked out here element by
 * element from A's coordinates rather than through the runs.
 */
bool
diagBlocksMapA(const MatMulBandMap &map)
{
    const MatMulDims &d = map.dims();
    const Index w = d.w;
    for (Index k = 0; k <= d.blockCount(); ++k) {
        const Index r = d.rOf(k), s = d.sOf(k); // (0, 0) at the tail
        for (Index i = 0; i < w; ++i) {
            for (Index j = i; j < w; ++j) {
                if (k * w + j >= d.order())
                    continue;
                const Index ar = r * w + i, ac = s * w + j;
                const std::uint32_t expect =
                    ar < d.n && ac < d.p
                        ? static_cast<std::uint32_t>(ar * d.p + ac)
                        : MatMulBandMap::kPad;
                if (map.a()[static_cast<std::size_t>((k * w + i) * w +
                                                     j - i)] != expect)
                    return false;
            }
        }
    }
    return true;
}

/**
 * The layout of Ā, tail included, which MatMulBandMap maps by: calls
 * seg(row, col, len, slot) for each run of A's row @p row, columns
 * col … col+len−1, that Ā holds from storage slot @p slot on. Slots
 * count from Ā's first, its rows back to back, w slots each; slots
 * no run covers hold padding zeros.
 */
template <typename Seg>
void
forEachASegment(const MatMulDims &d, Seg &&seg)
{
    const Index w = d.w, K = d.blockCount();
    // r and s of block row k, stepped along with k.
    Index r = 0, s = 0;
    for (Index k = 0; k <= K; ++k) {
        const Index first = k * w * w;
        if (k == K) {
            // Tail U': leading (w−1)×(w−1) corner of U^A_{0,0}; the
            // slots past column N−1 are zero.
            for (Index i = 0; i + 1 < w; ++i)
                seg(i, i, w - 1 - i, first + i * w);
            return;
        }
        // Row k·w+i stores columns k·w+i … k·w+i+w−1: row i of Ū_k =
        // U^A_{r,s} (local columns i … w−1), then row i of L̄_k =
        // L^A_{r,(s+1) mod p̄} (local columns 0 … i−1), both from A's
        // row r·w+i. Unless s+1 wraps to 0, the two are one run of A.
        const Index s_next = s + 1 == d.pbar ? 0 : s + 1;
        for (Index i = 0; i < w; ++i) {
            const Index src = r * w + i, slot = first + i * w;
            if (s_next == s + 1) {
                seg(src, s * w + i, w, slot);
                continue;
            }
            seg(src, s * w + i, w - i, slot);
            seg(src, s_next * w, i, slot + (w - i));
        }
        if (++s == d.pbar) {
            s = 0;
            if (++r == d.nbar)
                r = 0;
        }
    }
}

/** As forEachASegment(), for B̄ and B. */
template <typename Seg>
void
forEachBSegment(const MatMulDims &d, Seg &&seg)
{
    const Index w = d.w, K = d.blockCount();
    // r, s and c of block row k, stepped along with k; at the tail
    // k = K they read (0, 0, m̄).
    Index r = 0, s = 0, c = 0;
    for (Index k = 0; k <= K; ++k) {
        // Row k·w+i stores columns k·w+i−w+1 … k·w+i: row i of U⁻_k
        // (B block (s, c(k−1)), local columns i+1 … w−1; none at
        // k = 0, whose slots lie left of column 0), then row i of
        // L⁺_k (B block (s, c), local columns 0 … i), both from B's
        // row s·w+i. The tail row k = K has w−1 rows and its L' is
        // the leading corner of L⁺_{0,0}.
        const Index first = k * w * w;
        const Index c_diag = k < K ? c : 0;
        const Index c_sub = r == 0 && s == 0 ? c - 1 : c;
        const Index rows = k < K ? w : w - 1;
        for (Index i = 0; i < rows; ++i) {
            const Index src = s * w + i, slot = first + i * w;
            if (k >= 1)
                seg(src, c_sub * w + i + 1, w - 1 - i, slot);
            seg(src, c_diag * w, i + 1, slot + (w - 1 - i));
        }
        if (++s == d.pbar) {
            s = 0;
            if (++r == d.nbar) {
                r = 0;
                ++c;
            }
        }
    }
}

} // namespace

bool
MatMulDims::coverageHolds() const
{
    std::vector<Index> u_count(nbar * pbar, 0);
    std::vector<Index> l_count(pbar * mbar, 0);
    for (Index k = 0; k < blockCount(); ++k) {
        ++u_count[rOf(k) * pbar + sOf(k)];
        ++l_count[sOf(k) * mbar + cOf(k)];
    }
    for (Index v : u_count)
        if (v != mbar)
            return false;
    for (Index v : l_count)
        if (v != nbar)
            return false;
    return true;
}

MatMulDims
MatMulDims::of(const Dense<Scalar> &a, const Dense<Scalar> &b, Index w)
{
    SAP_ASSERT(w >= 1, "block size must be >= 1");
    SAP_ASSERT(a.rows() >= 1 && a.cols() >= 1 && b.cols() >= 1,
               "cannot partition an empty matrix");
    SAP_ASSERT(a.cols() == b.rows(), "A cols ", a.cols(),
               " != B rows ", b.rows());
    return {a.rows(), a.cols(), b.cols(), w, ceilDiv(a.rows(), w),
            ceilDiv(a.cols(), w), ceilDiv(b.cols(), w)};
}

MatMulBandMap::MatMulBandMap(const MatMulDims &dims)
    : dims_(dims),
      a_(static_cast<std::size_t>(dims.order() * dims.w), kPad),
      b_(a_.size(), kPad)
{
    const MatMulDims &d = dims_;
    SAP_ASSERT(d.n * d.p < Index{kPad} && d.p * d.m < Index{kPad},
               "operands too large to map");
    // Each run, clipped at the source's edges; the slots it leaves
    // stay kPad.
    auto mapper = [](Index rows, Index cols,
                     std::vector<std::uint32_t> &out) {
        return [&out, rows, cols](Index row, Index col, Index len,
                                  Index slot) {
            if (row >= rows)
                return;
            for (Index j = 0; j < len && col + j < cols; ++j)
                out[static_cast<std::size_t>(slot + j)] =
                    static_cast<std::uint32_t>(row * cols + col + j);
        };
    };
    forEachASegment(d, mapper(d.n, d.p, a_));
    forEachBSegment(d, mapper(d.p, d.m, b_));
    SAP_ASSERT(diagBlocksMapA(*this),
               "Ā diagonal blocks differ from A's provenance blocks");
}

MatMulTransform::MatMulTransform(const Dense<Scalar> &a,
                                 const Dense<Scalar> &b,
                                 std::shared_ptr<const MatMulBandMap> map)
    : a_(a), b_(b), map_(std::move(map))
{
    const MatMulDims &d = map_->dims();
    SAP_ASSERT(a.rows() == d.n && a.cols() == d.p && b.rows() == d.p &&
                   b.cols() == d.m,
               "band map of another shape");
}

MatMulTransform::MatMulTransform(const Dense<Scalar> &a,
                                 const Dense<Scalar> &b, Index w)
    : MatMulTransform(a, b,
                      std::make_shared<const MatMulBandMap>(
                          MatMulDims::of(a, b, w)))
{
}

Dense<Scalar>
MatMulTransform::aDiagBlock(Index k) const
{
    SAP_ASSERT(k >= 0 && k <= dims().blockCount(), "block row ", k,
               " out of range");
    return bandBlock(abar(), dims().w, k, k, TriPart::UpperWithDiag);
}

Dense<Scalar>
MatMulTransform::aSuperBlock(Index k) const
{
    const Index K = dims().blockCount();
    SAP_ASSERT(k >= 0 && k <= K, "block row ", k, " out of range");
    if (k == K)
        return Dense<Scalar>(dims().w, dims().w); // no super block at tail
    return bandBlock(abar(), dims().w, k, k + 1, TriPart::LowerStrict);
}

Dense<Scalar>
MatMulTransform::bDiagBlock(Index k) const
{
    SAP_ASSERT(k >= 0 && k <= dims().blockCount(), "block row ", k,
               " out of range");
    return bandBlock(bbar(), dims().w, k, k, TriPart::LowerWithDiag);
}

Dense<Scalar>
MatMulTransform::bSubBlock(Index k) const
{
    SAP_ASSERT(k >= 1 && k <= dims().blockCount(), "sub block row ", k,
               " out of range");
    return bandBlock(bbar(), dims().w, k, k - 1, TriPart::UpperStrict);
}

} // namespace sap
