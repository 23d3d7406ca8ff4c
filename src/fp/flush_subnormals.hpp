#pragma once
// FlushSubnormals: flush-to-zero and denormals-are-zero for one scope of
// one thread.
//
// On construction it sets FTZ | DAZ in the thread's MXCSR; on destruction
// (normal exit or unwinding) it puts those two bits back as it found them.
// The exception flags raised in the scope stay raised, as without it. The
// register is per thread, so code that forks an OpenMP team places one
// guard inside the parallel region. A guard must not be held across a
// fork: threads the runtime creates inherit the creating thread's MXCSR
// and would keep the flush after the guard is gone. On hosts without SSE
// the guard does nothing.

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

namespace tp::fp {

#if defined(__SSE__)
class FlushSubnormals {
public:
    /// MXCSR bits 15 (FTZ: subnormal results become zero) and 6 (DAZ:
    /// subnormal operands read as zero).
    static constexpr unsigned kFtzDaz = 0x8040;

    FlushSubnormals() : saved_(_mm_getcsr()) { _mm_setcsr(saved_ | kFtzDaz); }
    ~FlushSubnormals() {
        _mm_setcsr((_mm_getcsr() & ~kFtzDaz) | (saved_ & kFtzDaz));
    }
    FlushSubnormals(const FlushSubnormals&) = delete;
    FlushSubnormals& operator=(const FlushSubnormals&) = delete;

private:
    unsigned saved_;
};
#else
class FlushSubnormals {
public:
    // User-provided, so a guard declared and never named draws no
    // unused-variable warning.
    FlushSubnormals() {}
};
#endif

}  // namespace tp::fp
