#include "baseline/block_no_feedback.hh"

#include "base/logging.hh"
#include "base/math_util.hh"

namespace sap {

namespace {

/** Block (i, j) of @p a into the w×w @p out, zero past A's edges
 *  (§2.a). */
void
gatherBlock(const Dense<Scalar> &a, Index i, Index j, Dense<Scalar> &out)
{
    const Index w = out.rows();
    for (Index r = 0; r < w; ++r)
        a.gatherRow(i * w + r, j * w, w, &out(r, 0));
}

} // namespace

BlockNoFeedbackPlan::BlockNoFeedbackPlan(const Dense<Scalar> &a,
                                         Index w)
    : w_(w), rows_(a.rows()), cols_(a.cols())
{
    SAP_ASSERT(w >= 1, "block size must be >= 1");
    SAP_ASSERT(rows_ >= 1 && cols_ >= 1,
               "cannot partition an empty matrix");
    nbar_ = ceilDiv(rows_, w);
    mbar_ = ceilDiv(cols_, w);
    blocks_.reserve(static_cast<std::size_t>(nbar_ * mbar_));
    Dense<Scalar> blk(w, w);
    for (Index i = 0; i < nbar_; ++i) {
        for (Index j = 0; j < mbar_; ++j) {
            gatherBlock(a, i, j, blk);
            blocks_.emplace_back(blk, w);
        }
    }
}

bool
BlockNoFeedbackPlan::builtFrom(const Dense<Scalar> &a) const
{
    if (a.rows() != rows_ || a.cols() != cols_)
        return false;
    Dense<Scalar> blk(w_, w_);
    for (Index i = 0; i < nbar_; ++i) {
        for (Index j = 0; j < mbar_; ++j) {
            gatherBlock(a, i, j, blk);
            if (!blocks_[static_cast<std::size_t>(i * mbar_ + j)]
                     .transform()
                     .builtFrom(blk))
                return false;
        }
    }
    return true;
}

BlockNoFeedbackResult
BlockNoFeedbackPlan::run(const Vec<Scalar> &x,
                         const Vec<Scalar> &b) const
{
    SAP_ASSERT(x.size() == cols_ && b.size() == rows_,
               "shape mismatch");
    Vec<Scalar> xp = x.paddedTo(mbar_ * w_);

    Vec<Scalar> y_acc(nbar_ * w_);
    BlockNoFeedbackResult res;
    res.stats.peCount = w_;

    for (Index i = 0; i < nbar_; ++i) {
        for (Index j = 0; j < mbar_; ++j) {
            // Run block (i, j) as an isolated PRT problem with a
            // zero additive vector; accumulate on the host.
            const MatVecPlan &plan =
                blocks_[static_cast<std::size_t>(i * mbar_ + j)];
            Vec<Scalar> xb = xp.slice(j * w_, w_);
            MatVecPlanResult r = plan.run(xb, Vec<Scalar>(w_));
            for (Index t = 0; t < w_; ++t) {
                y_acc[i * w_ + t] += r.y[t];
                ++res.hostAdds;
            }
            res.perBlockCycles = r.stats.cycles;
            // Blocks run back to back: full fill + drain each time.
            res.stats.cycles += r.stats.cycles;
            res.stats.usefulMacs += r.stats.usefulMacs;
        }
    }

    // Fold in b on the host as well (no injection path).
    res.y = Vec<Scalar>(rows_);
    for (Index i = 0; i < rows_; ++i) {
        res.y[i] = y_acc[i] + b[i];
        ++res.hostAdds;
    }
    return res;
}

BlockNoFeedbackResult
runBlockNoFeedback(const Dense<Scalar> &a, const Vec<Scalar> &x,
                   const Vec<Scalar> &b, Index w)
{
    return BlockNoFeedbackPlan(a, w).run(x, b);
}

} // namespace sap
