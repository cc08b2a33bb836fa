#include "sim/mesh_array.hh"

#include "base/logging.hh"
#include "base/math_util.hh"

namespace sap {

namespace {

/** @p m zero-padded to whole w×w blocks (§2.a), row by row. */
Dense<Scalar>
padToBlocks(const Dense<Scalar> &m, Index w)
{
    Dense<Scalar> p(roundUp(m.rows(), w), roundUp(m.cols(), w));
    for (Index r = 0; r < p.rows(); ++r)
        m.gatherRow(r, 0, p.cols(), &p(r, 0));
    return p;
}

/** True if @p padded holds bit for bit what padToBlocks() gathers
 *  from @p m, row by row. */
bool
paddedFrom(const Dense<Scalar> &padded, const Dense<Scalar> &m)
{
    for (Index r = 0; r < padded.rows(); ++r)
        if (!m.matchesGather(r, 0, padded.cols(), &padded(r, 0)))
            return false;
    return true;
}

} // namespace

MeshArray::MeshArray(Index w)
    : w_(w), acc_(static_cast<std::size_t>(w * w), 0),
      a_reg_(static_cast<std::size_t>(w * w)),
      b_reg_(static_cast<std::size_t>(w * w)),
      a_in_(static_cast<std::size_t>(w)),
      b_in_(static_cast<std::size_t>(w))
{
    SAP_ASSERT(w >= 1, "mesh needs at least one PE");
}

void
MeshArray::setAIn(Index r, Sample s)
{
    SAP_ASSERT(r >= 0 && r < w_, "row ", r, " out of range");
    a_in_[static_cast<std::size_t>(r)] = s;
}

void
MeshArray::setBIn(Index q, Sample s)
{
    SAP_ASSERT(q >= 0 && q < w_, "column ", q, " out of range");
    b_in_[static_cast<std::size_t>(q)] = s;
}

void
MeshArray::loadC(Index r, Index q, Scalar v)
{
    SAP_ASSERT(r >= 0 && r < w_ && q >= 0 && q < w_,
               "PE (", r, ",", q, ") out of range");
    acc_[idx(r, q)] = v;
}

Scalar
MeshArray::c(Index r, Index q) const
{
    SAP_ASSERT(r >= 0 && r < w_ && q >= 0 && q < w_,
               "PE (", r, ",", q, ") out of range");
    return acc_[idx(r, q)];
}

void
MeshArray::step()
{
    // Combinational wires: PE (r,q) sees a from the west (external
    // a_in for q == 0) and b from the north (external b_in for
    // r == 0). Iterating rows and columns in descending order
    // updates both stream registers in place: PE (r,q) reads
    // a_reg_(r,q-1) and b_reg_(r-1,q), which later iterations write.
    for (Index r = w_ - 1; r >= 0; --r) {
        for (Index q = w_ - 1; q >= 0; --q) {
            Sample a = (q == 0) ? a_in_[r] : a_reg_[idx(r, q - 1)];
            Sample b = (r == 0) ? b_in_[q] : b_reg_[idx(r - 1, q)];
            if (a.valid && b.valid) {
                acc_[idx(r, q)] += a.value * b.value;
                ++useful_macs_;
            }
            a_reg_[idx(r, q)] = a;
            b_reg_[idx(r, q)] = b;
        }
    }

    // Inputs are consumed; clear for the next cycle.
    for (Index k = 0; k < w_; ++k) {
        a_in_[k] = Sample::bubble();
        b_in_[k] = Sample::bubble();
    }

    ++now_;
}

MeshMatMulPlan::MeshMatMulPlan(const Dense<Scalar> &a,
                               const Dense<Scalar> &b, Index w)
    : w_(w), n_(a.rows()), p_(a.cols()), m_(b.cols())
{
    SAP_ASSERT(b.rows() == p_, "B rows ", b.rows(), " != A cols ", p_);
    SAP_ASSERT(w >= 1, "mesh side w = ", w, " must be at least 1");
    SAP_ASSERT(n_ >= 1 && p_ >= 1 && m_ >= 1,
               "cannot partition an empty matrix");
    nbar_ = ceilDiv(n_, w);
    pbar_ = ceilDiv(p_, w);
    mbar_ = ceilDiv(m_, w);
    a_padded_ = padToBlocks(a, w);
    b_padded_ = padToBlocks(b, w);
}

bool
MeshMatMulPlan::builtFrom(const Dense<Scalar> &a,
                          const Dense<Scalar> &b) const
{
    return a.rows() == n_ && a.cols() == p_ && b.rows() == p_ &&
           b.cols() == m_ && paddedFrom(a_padded_, a) &&
           paddedFrom(b_padded_, b);
}

MeshRunResult
MeshMatMulPlan::run(const Dense<Scalar> &e, bool record_trace) const
{
    SAP_ASSERT(e.rows() == n_ && e.cols() == m_, "E shape ",
               e.rows(), "x", e.cols(), " != ", n_, "x", m_);

    MeshRunResult res;
    res.c = Dense<Scalar>(n_, m_);
    res.stats.peCount = w_ * w_;

    MeshArray mesh(w_);
    const Index ptot = pbar_ * w_; // concatenated reduction length
    const Cycle pass = ptot + 2 * (w_ - 1);

    for (Index i = 0; i < nbar_; ++i) {
        for (Index j = 0; j < mbar_; ++j) {
            // Preload E (host access to the stationary registers).
            for (Index r = 0; r < w_; ++r) {
                for (Index q = 0; q < w_; ++q) {
                    Index gi = i * w_ + r, gj = j * w_ + q;
                    Scalar v = (gi < n_ && gj < m_) ? e(gi, gj) : 0;
                    mesh.loadC(r, q, v);
                    if (record_trace)
                        res.trace.add(mesh.now(), Port::CIn,
                                      gi * (mbar_ * w_) + gj, v);
                }
            }

            // One streaming pass: row r skewed by r, column q by q,
            // so A(i·w+r, t) meets B(t, j·w+q) at PE (r,q) on
            // pass-cycle t + r + q.
            for (Cycle c = 0; c < pass; ++c) {
                for (Index r = 0; r < w_; ++r) {
                    Index t = static_cast<Index>(c) - r;
                    if (t >= 0 && t < ptot) {
                        Scalar v = a_padded_(i * w_ + r, t);
                        mesh.setAIn(r, Sample::of(v));
                        if (record_trace)
                            res.trace.add(mesh.now(), Port::AIn,
                                          (i * w_ + r) * ptot + t, v);
                    }
                }
                for (Index q = 0; q < w_; ++q) {
                    Index t = static_cast<Index>(c) - q;
                    if (t >= 0 && t < ptot) {
                        Scalar v = b_padded_(t, j * w_ + q);
                        mesh.setBIn(q, Sample::of(v));
                        if (record_trace)
                            res.trace.add(mesh.now(), Port::BIn,
                                          t * (mbar_ * w_) + j * w_ +
                                              q,
                                          v);
                    }
                }
                mesh.step();
            }

            // Drain into C (host access; next pass reloads).
            for (Index r = 0; r < w_; ++r) {
                for (Index q = 0; q < w_; ++q) {
                    Index gi = i * w_ + r, gj = j * w_ + q;
                    if (gi < n_ && gj < m_) {
                        res.c(gi, gj) = mesh.c(r, q);
                        if (record_trace)
                            res.trace.add(mesh.now() - 1, Port::COut,
                                          gi * (mbar_ * w_) + gj,
                                          mesh.c(r, q));
                    }
                }
            }
        }
    }

    res.stats.cycles = mesh.now();
    res.stats.usefulMacs = mesh.usefulMacs();
    return res;
}

} // namespace sap
