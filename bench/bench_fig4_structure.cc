/**
 * @file
 * Figure 4 reproduction: block structure of the transformed
 * mat-mul problem for n̄=2, p̄=2, m̄=3 — the provenance sequences of
 * the Ā and B̄ bands (including the U'/L' tail blocks) and their
 * occupancy pictures.
 */

#include "bench/bench_common.hh"

#include "dbt/matmul_transform.hh"
#include "mat/generate.hh"
#include "mat/io.hh"

namespace sap {
namespace {

/** @p band as a dense matrix, zero outside the band. */
Dense<Scalar>
toDense(const MappedBand &band)
{
    Dense<Scalar> d(band.rows(), band.cols());
    for (Index r = 0; r < band.rows(); ++r)
        for (Index c = 0; c < band.cols(); ++c)
            d(r, c) = band.at(r, c);
    return d;
}

void
print()
{
    printHeader("F4", "block structure of the transformed "
                      "matrix-matrix problem (n̄=2, p̄=2, m̄=3)");

    const Index w = 3;
    Dense<Scalar> a = coordinateCoded(6, 6);
    Dense<Scalar> b = coordinateCoded(6, 9);
    MatMulTransform t(a, b, w);
    const MatMulDims &d = t.dims();

    std::printf("dims: n̄=%lld p̄=%lld m̄=%lld, K=%lld block rows, "
                "order N=%lld\n",
                (long long)d.nbar, (long long)d.pbar,
                (long long)d.mbar, (long long)d.blockCount(),
                (long long)d.order());

    std::printf("\nĀ band sequence (k: Ū=U^A_{r,s}, L̄=L^A_{r,s⊕1}):\n");
    for (Index k = 0; k < d.blockCount(); ++k) {
        std::printf("  k=%2lld: U%lld,%lld L%lld,%lld%s\n",
                    (long long)k, (long long)d.rOf(k),
                    (long long)d.sOf(k), (long long)d.rOf(k),
                    (long long)((d.sOf(k) + 1) % d.pbar),
                    k % (d.nbar * d.pbar) == 0 ? "   <- copy start"
                                               : "");
    }
    std::printf("  k=%2lld: U' (leading (w-1)x(w-1) of U^A_{0,0})\n",
                (long long)d.blockCount());

    std::printf("\nB̄ band sequence (k: L⁺=B-lower(s,c), "
                "U⁻=B-upper(s,c')):\n");
    for (Index k = 0; k < d.blockCount(); ++k) {
        std::printf("  k=%2lld: L+%lld,%lld", (long long)k,
                    (long long)d.sOf(k), (long long)d.cOf(k));
        if (k >= 1)
            std::printf("  U-%lld,%lld", (long long)(k % d.pbar),
                        (long long)((k - 1) / (d.nbar * d.pbar)));
        std::printf("\n");
    }
    std::printf("  k=%2lld: L' (leading (w-1)x(w-1) of L⁺_{0,0})\n",
                (long long)d.blockCount());

    std::printf("\nĀ occupancy:\n%s",
                occupancyPicture(toDense(t.abar())).c_str());
    std::printf("\nB̄ occupancy:\n%s",
                occupancyPicture(toDense(t.bbar())).c_str());
}

void
BM_MatMulTransformBuild(benchmark::State &state)
{
    Index s = state.range(0);
    Dense<Scalar> a = randomIntDense(s, s, 1);
    Dense<Scalar> b = randomIntDense(s, s, 2);
    for (auto _ : state) {
        MatMulTransform t(a, b, 3);
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_MatMulTransformBuild)->Arg(6)->Arg(12)->Arg(24);

} // namespace
} // namespace sap

SAP_BENCH_MAIN(sap::print)
