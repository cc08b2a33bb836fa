#include "dbt/sparse_dbt.hh"

#include "base/logging.hh"
#include "base/math_util.hh"

namespace sap {

namespace {

/** One row of the compressed band sequence. */
struct SeqRow
{
    Index orig_k = -1;   ///< original band block row (−1 = separator)
    Index orig_r = -1;   ///< original matrix block row it serves
    Index x_block = 0;   ///< which x sub-vector its Ū columns carry
    Index l_x_block = 0; ///< which x sub-vector its L̄ needs
    bool b_external = false;
    bool y_final = false;
};

} // namespace

// Implementation note: the compressed sequence lives in the band and
// the flag vectors; SeqRow is only used transiently during
// construction.

SparseDbt::SparseDbt(const Dense<Scalar> &a, Index w)
    : full_(a, w), band_(0, 0, 0, 0)
{
    const MatVecDims &d = full_.dims();
    const Index mbar = d.mbar;

    // Zero-pair classification of the original band block rows.
    auto pair_is_zero = [&](Index k) {
        const auto &pr = full_.pair(k);
        Dense<Scalar> blk(w, w);
        for (Index i = 0; i < w; ++i) {
            for (Index j = i; j < w; ++j) {
                if (full_.abar().at(k * w + i, k * w + j) != 0)
                    return false;
            }
            for (Index j = 0; j < i; ++j) {
                if (full_.abar().at(k * w + i, (k + 1) * w + j) != 0)
                    return false;
            }
        }
        (void)pr;
        return true;
    };

    // Build the compressed sequence with separators where the
    // x-sharing of adjacent rows would otherwise break.
    std::vector<SeqRow> seq;
    std::vector<std::vector<Index>> rows_of(d.nbar);
    for (Index k = 0; k < d.blockCount(); ++k)
        if (!pair_is_zero(k))
            rows_of[k / mbar].push_back(k);

    auto l_is_zero = [&](Index k) {
        for (Index i = 0; i < w; ++i)
            for (Index j = 0; j < i; ++j)
                if (full_.abar().at(k * w + i, (k + 1) * w + j) != 0)
                    return false;
        return true;
    };

    for (Index r = 0; r < d.nbar; ++r) {
        for (std::size_t t = 0; t < rows_of[r].size(); ++t) {
            Index k = rows_of[r][t];
            SeqRow row;
            row.orig_k = k;
            row.orig_r = r;
            row.x_block = k % mbar;
            row.l_x_block = (k % mbar + 1) % mbar;
            row.b_external = (t == 0);
            row.y_final = (t + 1 == rows_of[r].size());

            if (!seq.empty()) {
                const SeqRow &prev = seq.back();
                bool prev_l_nonzero = prev.orig_k >= 0 &&
                                      !l_is_zero(prev.orig_k);
                if (prev_l_nonzero &&
                    prev.l_x_block != row.x_block) {
                    SeqRow sep;
                    sep.orig_k = -1;
                    sep.orig_r = -1;
                    sep.x_block = prev.l_x_block;
                    sep.l_x_block = row.x_block;
                    // A separator inside a chain carries the partial
                    // result through; between chains it is inert.
                    sep.b_external = !(prev.orig_r == r && !prev.y_final);
                    sep.y_final = false;
                    if (!sep.b_external) {
                        // The chain detours through the separator:
                        // the previous row recirculates instead of
                        // being the (temporarily assumed) emitter.
                        seq.back().y_final = false;
                    }
                    seq.push_back(sep);
                    if (!sep.b_external)
                        row.b_external = false;
                }
            }
            seq.push_back(row);
        }
    }

    // Separators inside chains were only detected pairwise above for
    // x-sharing; chain continuity (feedback) is encoded in the
    // b/y flags already set. Record empty original rows (y_r = b_r).
    first_in_row_.clear();
    last_in_row_.clear();
    kept_.clear();

    const Index rows = static_cast<Index>(seq.size());
    band_ = Band<Scalar>(rows * w, rows * w + w - 1, 0, w - 1);
    x_blocks_.clear();
    row_r_.clear();
    for (Index t = 0; t < rows; ++t) {
        const SeqRow &row = seq[static_cast<std::size_t>(t)];
        kept_.push_back(row.orig_k);
        first_in_row_.push_back(row.b_external ? 1 : 0);
        last_in_row_.push_back(row.y_final ? 1 : 0);
        x_blocks_.push_back(row.x_block);
        row_r_.push_back(row.orig_r);
        if (row.orig_k >= 0) {
            Index k = row.orig_k;
            for (Index i = 0; i < w; ++i) {
                for (Index off = 0; off <= w - 1; ++off) {
                    Scalar v;
                    if (i + off < w) // Ū region
                        v = full_.abar().at(k * w + i, k * w + i + off);
                    else             // L̄ region
                        v = full_.abar().at(k * w + i,
                                            (k + 1) * w + (i + off - w));
                    band_.ref(t * w + i, t * w + i + off) = v;
                }
            }
        }
    }
    tail_x_block_ = seq.empty()
                        ? 0
                        : seq.back().l_x_block;
}

BandMatVecSpec
SparseDbt::spec(const Vec<Scalar> &x, const Vec<Scalar> &b)
{
    const MatVecDims &d = full_.dims();
    const Index w = d.w;
    const Index rows = static_cast<Index>(kept_.size());
    Vec<Scalar> xp = x.paddedTo(d.mbar * w);
    b_padded_ = b.paddedTo(d.nbar * w);

    xbar_ = Vec<Scalar>(rows * w + w - 1);
    for (Index t = 0; t < rows; ++t)
        for (Index e = 0; e < w; ++e)
            xbar_[t * w + e] = xp[x_blocks_[t] * w + e];
    for (Index e = 0; e < w - 1; ++e)
        xbar_[rows * w + e] = xp[tail_x_block_ * w + e];

    b_external_.assign(static_cast<std::size_t>(rows * w), 0);
    BandMatVecSpec s;
    s.abar = &band_;
    s.xbar = xbar_;
    s.bIsExternal = &b_external_;
    s.externalB = Vec<Scalar>(rows * w);
    for (Index t = 0; t < rows; ++t) {
        for (Index e = 0; e < w; ++e) {
            Index i = t * w + e;
            b_external_[i] = first_in_row_[t];
            if (first_in_row_[t] && row_r_[t] >= 0)
                s.externalB[i] = b_padded_[row_r_[t] * w + e];
        }
    }
    return s;
}

Vec<Scalar>
SparseDbt::extractY(const Vec<Scalar> &ybar) const
{
    const MatVecDims &d = full_.dims();
    const Index w = d.w;
    SAP_ASSERT(b_padded_.size() == d.nbar * w,
               "call spec() before extractY()");

    // Rows with no surviving blocks produce y_r = b_r.
    Vec<Scalar> y_pad = b_padded_;
    for (Index t = 0; t < static_cast<Index>(kept_.size()); ++t) {
        if (!last_in_row_[t] || row_r_[t] < 0)
            continue;
        for (Index e = 0; e < w; ++e)
            y_pad[row_r_[t] * w + e] = ybar[t * w + e];
    }
    return y_pad.slice(0, d.n);
}

} // namespace sap
