#include "common/simd.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ev8
{
namespace simd
{

bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool has = __builtin_cpu_supports("avx2") != 0;
    return has;
#else
    return false;
#endif
}

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::Off:
        return "off";
      case Backend::Avx2:
        return "avx2";
    }
    return "unknown";
}

unsigned
backendLanes(Backend backend)
{
    return backend == Backend::Off ? 1u : unsigned{kVectorLanes};
}

Backend
activeBackend()
{
    const char *env = std::getenv("EV8_SIMD");
    if (env == nullptr) {
        // cpuid default: the intrinsic path when both build and CPU
        // can run it, otherwise the tuned scalar steppers.
        return builtWithAvx2() && cpuHasAvx2() ? Backend::Avx2
                                               : Backend::Off;
    }
    // "scalar" stays accepted as "0" because perfbench/ledger.cc sets it.
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "scalar") == 0)
        return Backend::Off;
    if (std::strcmp(env, "avx2") == 0) {
        if (!builtWithAvx2()) {
            std::fprintf(stderr, "EV8_SIMD: 'avx2' requested but this "
                                 "build has no AVX2 backend\n");
            std::exit(2);
        }
        if (!cpuHasAvx2()) {
            std::fprintf(stderr, "EV8_SIMD: 'avx2' requested but this "
                                 "CPU does not report AVX2\n");
            std::exit(2);
        }
        return Backend::Avx2;
    }
    std::fprintf(stderr,
                 "EV8_SIMD: invalid value '%s'; expected 0 or avx2\n",
                 env);
    std::exit(2);
}

Backend
groupBackend(size_t nlanes)
{
    const Backend backend = activeBackend();
    return nlanes > 1 ? backend : Backend::Off;
}

} // namespace simd
} // namespace ev8
