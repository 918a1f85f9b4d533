/**
 * @file
 * AVX2 backend entry points: the fused_vec.hh kernels instantiated
 * on simd::U64x4Avx2. This is the only translation unit built with
 * -mavx2 (see src/predictors/CMakeLists.txt); its interface to the
 * rest of the build is scalar-argument member functions, so no vector
 * types cross the TU boundary.
 *
 * When the toolchain cannot compile -mavx2 the file is built plain and
 * defines nothing: EV8_HAVE_AVX2 is then unset, so the group steppers
 * compile their AVX2 entry-point calls away.
 */

#include "predictors/fused_vec.hh"

namespace ev8
{

#if defined(__AVX2__)

void
TwoBcGskewPredictor::FusedGroup::histVecAvx2(const BranchSnapshot &snap)
{
    histVec<simd::U64x4Avx2>(snap);
}

void
GsharePredictor::FusedGroup::stepVecAvx2(const BranchSnapshot &snap,
                                         bool taken, uint64_t *misp)
{
    stepVec<simd::U64x4Avx2>(snap, taken, misp);
}

#endif // __AVX2__

} // namespace ev8
